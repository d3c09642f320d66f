package netsim

import "spacedc/internal/pool"

// SweepResult pairs one scenario with its outcome.
type SweepResult struct {
	Scenario Scenario
	Result   Result
	Err      error
}

// Sweep executes every scenario across the shared worker pool and returns
// the results in input order. workers ≤ 0 means one slot per CPU; workers=1
// runs serially on the caller. Each run owns all of its state (graph, RNG,
// queues), so the only sharing is the result slot each job writes —
// scenario i's result is independent of the worker count, and a single-slot
// sweep is bit-identical to a parallel one. Errors are carried per scenario
// in SweepResult.Err, never aggregated, so a failing scenario stays
// attached to its own grid position.
//
// Because the sweep schedules into the shared pool, a Sweep nested inside a
// pooled experiment (the ext-netsim sub-jobs) draws on the same global
// token budget as its sibling experiments instead of oversubscribing the
// machine with a private worker set.
func Sweep(scenarios []Scenario, workers int) []SweepResult {
	results := make([]SweepResult, len(scenarios))
	pool.Map(len(scenarios), workers, func(i int) error {
		r, err := Run(scenarios[i])
		results[i] = SweepResult{Scenario: scenarios[i], Result: r, Err: err}
		return nil
	})
	return results
}
