package core

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/layout"
	"repro/internal/trace"
)

// Policy is a named single-tape placement strategy over the compact slot
// range [0, NumItems). The evaluation compares policies by name; the CLIs
// select them by name.
type Policy struct {
	// Name identifies the policy in tables and on command lines.
	Name string
	// Description is a one-line summary.
	Description string
	// Baseline marks the policies the paper compares against (as opposed
	// to the proposed family).
	Baseline bool
	// Place computes the placement. Both the trace and its transition
	// graph are supplied so policies of either flavor avoid recomputing.
	Place func(t *trace.Trace, g *graph.Graph) (layout.Placement, error)
}

// Policies returns the standard policy set in evaluation order. The seed
// feeds the randomized policies; equal seeds reproduce identical results.
func Policies(seed int64) []Policy {
	return []Policy{
		{
			Name:        "program",
			Description: "first-touch program order (primary baseline)",
			Baseline:    true,
			Place: func(t *trace.Trace, _ *graph.Graph) (layout.Placement, error) {
				return ProgramOrder(t)
			},
		},
		{
			Name:        "random",
			Description: "uniform random placement",
			Baseline:    true,
			Place: func(t *trace.Trace, _ *graph.Graph) (layout.Placement, error) {
				return Random(t.NumItems, seed)
			},
		},
		{
			Name:        "frequency",
			Description: "descending frequency from slot 0",
			Baseline:    true,
			Place: func(t *trace.Trace, _ *graph.Graph) (layout.Placement, error) {
				return Frequency(t, 0)
			},
		},
		{
			Name:        "organpipe",
			Description: "descending frequency centered (organ pipe)",
			Baseline:    true,
			Place: func(t *trace.Trace, _ *graph.Graph) (layout.Placement, error) {
				return OrganPipe(t)
			},
		},
		{
			Name:        "greedy",
			Description: "proposed greedy chain growth",
			Place: func(_ *trace.Trace, g *graph.Graph) (layout.Placement, error) {
				return GreedyChain(g, SeedHeaviestEdge)
			},
		},
		{
			Name:        "greedy2opt",
			Description: "proposed greedy chain + 2-opt refinement",
			Place: func(_ *trace.Trace, g *graph.Graph) (layout.Placement, error) {
				p, _, err := GreedyTwoOpt(g, TwoOptOptions{})
				return p, err
			},
		},
		{
			Name:        "multilevel",
			Description: "coarsen-solve-uncoarsen V-cycle (scalable configuration)",
			Place: func(_ *trace.Trace, g *graph.Graph) (layout.Placement, error) {
				p, _, err := Multilevel(g, MultilevelOptions{})
				return p, err
			},
		},
		{
			Name:        "proposed",
			Description: "proposed multi-start pipeline (greedy/program seeds + 2-opt + insertion)",
			Place: func(t *trace.Trace, g *graph.Graph) (layout.Placement, error) {
				p, _, err := Propose(t, g)
				return p, err
			},
		},
		{
			Name:        "anneal",
			Description: "proposed pipeline + simulated annealing",
			Place: func(t *trace.Trace, g *graph.Graph) (layout.Placement, error) {
				p, _, err := Propose(t, g)
				if err != nil {
					return nil, err
				}
				p, _, err = Anneal(g, p, AnnealOptions{Seed: seed})
				return p, err
			},
		},
	}
}

// PolicyByName returns the named policy from the standard set.
func PolicyByName(name string, seed int64) (Policy, error) {
	for _, p := range Policies(seed) {
		if p.Name == name {
			return p, nil
		}
	}
	return Policy{}, fmt.Errorf("core: unknown policy %q", name)
}

// PolicyNames lists the standard policy names in evaluation order.
func PolicyNames() []string {
	ps := Policies(0)
	names := make([]string, len(ps))
	for i, p := range ps {
		names[i] = p.Name
	}
	return names
}
