package lib

import "fmt"

// Used is referenced from package app.
type Used struct{ n int }

// New is called from package app: a cross-package use.
func New(n int) Used { return Used{n: n} }

// Value is called from package app.
func (u Used) Value() int { return u.n }

// String satisfies fmt.Stringer; a method whose name an interface
// declares counts as used even though nothing calls it directly.
func (u Used) String() string { return fmt.Sprint(u.n) }

// Name satisfies app's namer interface.
func (u Used) Name() string { return "used" }

func (u Used) Double() int { return 2 * u.n } // want `method Used.Double has no non-test reference`

func Dead() int { return 0 } // want `func Dead has no non-test reference`

type DeadType struct{} // want `type DeadType has no non-test reference`

// OnlyInTest is called from lib_test.go alone.
func OnlyInTest() int { return 3 } // want `func OnlyInTest has no non-test reference`

// Countdown calls only itself: a reference inside its own declaration
// does not count.
func Countdown(n int) int { // want `func Countdown has no non-test reference`
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// node refers only to itself.
type node struct{ next *node } // want `type node has no non-test reference`

// Oracle is a test oracle kept in production code on purpose.
//
//dwmlint:ignore testonly fixture: the reference the tests check New against
func Oracle(n int) Used { return Used{n: n} }

// init runs on import; it is never reported.
func init() {}
