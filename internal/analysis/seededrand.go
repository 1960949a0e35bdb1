package analysis

import (
	"go/ast"
	"go/types"
)

// SeededRand forbids randomness that does not flow from an explicit
// seed. The package-level math/rand functions draw from the shared
// global source, so their output depends on every other draw in the
// process — under the runner's worker pool that means worker count and
// scheduling would leak into tables. Constructing a *rand.Rand from a wall-clock
// seed breaks reproducibility the same way from the other end.
var SeededRand = &Analyzer{
	Name: "seededrand",
	Doc: "forbid global math/rand state and time-seeded sources: every RNG " +
		"must be a *rand.Rand built from an explicit seed (derived via " +
		"stats.DeriveNamedSeed for per-row streams) and threaded as a parameter",
	Run: runSeededRand,
}

// randConstructors are the math/rand (and v2) package-level functions
// that build an explicit source instead of drawing from the global one.
var randConstructors = map[string]bool{
	"New":        true,
	"NewSource":  true,
	"NewZipf":    true,
	"NewPCG":     true,
	"NewChaCha8": true,
}

func runSeededRand(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || !isRandPkg(fn.Pkg()) {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods on an explicit *rand.Rand are the approved pattern
			}
			if !randConstructors[fn.Name()] {
				pass.Reportf(call.Pos(),
					"%s.%s draws from the process-global source; thread a *rand.Rand built from an explicit seed instead",
					fn.Pkg().Name(), fn.Name())
				return true
			}
			if wall := findWallClockRead(pass.TypesInfo, call.Args); wall != nil {
				pass.Reportf(wall.Pos(),
					"wall clock seeds %s.%s; derive the seed from the experiment seed so runs are reproducible",
					fn.Pkg().Name(), fn.Name())
			}
			return true
		})
	}
	return nil
}

func isRandPkg(pkg *types.Package) bool {
	return pkg != nil && (pkg.Path() == "math/rand" || pkg.Path() == "math/rand/v2")
}

// findWallClockRead returns the first time.Now call anywhere in the
// argument expressions, nil if there is none. It does not descend into
// nested math/rand constructor calls — those report for themselves, so
// rand.New(rand.NewSource(time.Now().UnixNano())) yields one diagnostic
// at the innermost constructor, not two.
func findWallClockRead(info *types.Info, args []ast.Expr) ast.Node {
	var found ast.Node
	for _, arg := range args {
		ast.Inspect(arg, func(n ast.Node) bool {
			if found != nil {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(info, call)
			if fn == nil {
				return true
			}
			if isRandPkg(fn.Pkg()) && randConstructors[fn.Name()] {
				return false
			}
			if fn.Pkg() != nil && fn.Pkg().Path() == "time" && fn.Name() == "Now" {
				found = call
				return false
			}
			return true
		})
		if found != nil {
			break
		}
	}
	return found
}
