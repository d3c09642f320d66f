package experiments

import (
	"context"
	"fmt"

	"spacedc/internal/optimize"
	"spacedc/internal/report"
)

var _ = register("ext-optimize",
	"constellation design-space optimizer: heuristic search vs equal-budget random sweeps on goodput per dollar",
	ExtOptimize)

// OptimizeStudyEval is the shared candidate-evaluation configuration
// behind ext-optimize and the daemon's optimize spec: the netsim and
// resilience runs are shortened so a full search stays interactive while
// still discriminating along every design axis. Centralizing it here
// keeps the CLI and daemon content-addressed results comparable.
func OptimizeStudyEval() optimize.EvalConfig {
	return optimize.EvalConfig{
		NetDurationSec:     10,
		NetStepSec:         0.5,
		NetEpochSec:        5,
		ComputeDurationSec: 600,
	}
}

// OptimizeStudyConfig is the reference search configuration: a seeded
// annealed multi-restart climb with a fixed proposal budget, so the
// experiment's trace and tables are bit-identical at any worker count.
func OptimizeStudyConfig() optimize.Config {
	return optimize.Config{
		Seed:     42,
		Budget:   48,
		Restarts: 8,
		Anneal:   true,
		Eval:     OptimizeStudyEval(),
	}
}

// randomBaselineSeeds drive the equal-budget random sweeps ext-optimize
// compares the heuristic against.
var randomBaselineSeeds = []int64{1, 2, 3}

// ExtOptimize runs the constellation design-space study: the heuristic
// search over optimize.DefaultSpace maximizing goodput per dollar-hour,
// followed by equal-budget pure-random sweeps as the baseline. It emits
// the search trace, the cost-vs-goodput Pareto frontier, and a
// search-vs-sweep comparison table.
func ExtOptimize() ([]report.Table, error) {
	space := optimize.DefaultSpace()
	cfg := OptimizeStudyConfig()

	heur, err := optimize.Search(context.Background(), cfg, space)
	if err != nil {
		return nil, fmt.Errorf("ext-optimize: heuristic search: %w", err)
	}
	tables := optimize.Tables(heur)

	cmp := report.Table{
		ID:    "ext-optimize-compare",
		Title: fmt.Sprintf("Search vs equal-budget random sweep (%d proposals each, %d-design space)", cfg.Budget, space.Size()),
		Note: "the heuristic (seeded restarts + Hamming-1 neighborhood moves + annealed acceptance) against " +
			"pure uniform sampling under the same evaluation budget; objective is goodput Mbps per amortized $/hour",
		Columns: []string{"searcher", "seed", "best objective", "best design",
			"evaluated", "cache hits", "infeasible"},
	}
	addRow := func(name string, seed int64, out *optimize.Outcome) {
		cmp.AddRow(name, seed,
			fmt.Sprintf("%.4f", out.Best.Score.Objective),
			optimize.Key(out.Best.Design),
			out.Evaluated, out.CacheHits, out.Infeasible)
	}
	addRow("heuristic", cfg.Seed, heur)
	for _, seed := range randomBaselineSeeds {
		// One chain per proposal: the whole budget is Search's round zero of uniform draws.
		rcfg := optimize.Config{Seed: seed, Budget: cfg.Budget, Restarts: cfg.Budget, Eval: cfg.Eval}
		r, err := optimize.Search(context.Background(), rcfg, space)
		if err != nil {
			return nil, fmt.Errorf("ext-optimize: random sweep seed %d: %w", seed, err)
		}
		addRow("random", seed, r)
	}
	return append(tables, cmp), nil
}
