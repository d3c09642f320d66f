// Package experiments contains one driver per table and figure of the
// paper's evaluation. Each driver runs the relevant models end-to-end and
// returns a report.Table with the same rows/series the paper reports, so
// the experiment record (EXPERIMENTS.md), the sudcsim CLI, the sudcsimd
// evaluation daemon, and the benchmark harness all share one
// implementation.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"time"

	"spacedc/internal/datagen"
	"spacedc/internal/obs"
	"spacedc/internal/pool"
	"spacedc/internal/report"
)

// Epoch is the fixed reference epoch all orbital experiments use, chosen
// near an equinox so eclipse geometry is representative.
var Epoch = time.Date(2026, 3, 20, 0, 0, 0, 0, time.UTC)

// Mission64 is the paper's study constellation: 64 EO satellites producing
// the Default4K frame stream.
var Mission64 = datagen.Mission{Frame: datagen.Default4K, Satellites: 64}

// Runner produces one experiment's table(s).
type Runner func() ([]report.Table, error)

// All is the pseudo-ID that sweeps the entire registry in ID order. It is
// dispatched by RunWorkers like any single experiment, so callers (the
// sudcsim CLI, the sudcsimd daemon) never special-case the full sweep.
const All = "all"

// Info is one registered experiment's metadata.
type Info struct {
	ID          string
	Description string
}

// entry pairs a runner with its metadata.
type entry struct {
	runner Runner
	desc   string
}

// registry maps experiment IDs to runners plus metadata.
var registry = map[string]entry{}

// register adds a runner; drivers call it from file-scope var blocks.
func register(id, desc string, r Runner) struct{} {
	registry[id] = entry{runner: r, desc: desc}
	return struct{}{}
}

// IDs returns all experiment IDs in sorted order (the All pseudo-ID is not
// listed; it is a dispatch alias, not an experiment).
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// List returns ID+description metadata for every registered experiment in
// ID order — the /v1/experiments listing and the sudcsim usage text.
func List() []Info {
	infos := make([]Info, 0, len(registry))
	for _, id := range IDs() {
		infos = append(infos, Info{ID: id, Description: registry[id].desc})
	}
	return infos
}

// RunWorkers is the single dispatch point under every frontend: it
// executes experiment id — or the full registry sweep when id is All —
// with optional observability and pool-level parallelism.
//
// For the All sweep the experiment IDs fan out as jobs on the shared
// worker pool (internal/pool) and the tables are reassembled in ID order,
// so the output is bit-identical to a serial sweep for any worker count.
// workers ≤ 0 means one slot per CPU; workers=1 claims every experiment on
// the calling goroutine. Every driver owns all of its state (the registry
// map is read-only after init and the obs handles are concurrency-safe),
// so experiments only share the result slot each job writes. Drivers that
// fan out internally (ext-netsim's scenario sweep, ext-lossy's quant grid,
// table4's imagery suites) schedule their sub-jobs into the same shared
// pool, so the whole tree of work competes for one global token budget:
// experiment-level and sub-experiment-level parallelism compose without
// oversubscribing the machine.
//
// Cancellation is checked at experiment boundaries: a Done ctx stops new
// experiments from starting (in-flight drivers run to completion, keeping
// their deterministic state intact) and surfaces as the lowest-ID
// ctx error. Like any failure in the pooled sweep, the error reported is
// the one that comes first in ID order — independent of scheduling.
func RunWorkers(ctx context.Context, reg *obs.Registry, id string, workers int) ([]report.Table, error) {
	if id != All {
		tables, err := runOne(ctx, reg, id)
		if err != nil {
			return nil, err
		}
		return tables, nil
	}

	ids := IDs()
	span := reg.StartSpan("experiments.runall")
	defer span.End()
	type outcome struct {
		tables []report.Table
		err    error
	}
	results := make([]outcome, len(ids))
	pool.MapObs(len(ids), workers, reg, "experiments.pool", func(i int) error {
		tables, err := runOne(ctx, reg, ids[i])
		results[i] = outcome{tables: tables, err: err}
		return nil
	})
	var out []report.Table
	for i, r := range results {
		if r.err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", ids[i], r.err)
		}
		out = append(out, r.tables...)
	}
	return out, nil
}

// runOne executes one registered experiment, recording a per-experiment
// span ("experiments.<id>", wall time when reg runs on the wall clock)
// plus completion and table-count counters. A nil registry costs one nil
// check. A Done ctx refuses to start the run.
func runOne(ctx context.Context, reg *obs.Registry, id string) ([]report.Table, error) {
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
	}
	if err := ctx.Err(); err != nil {
		reg.Counter("experiments.canceled").Inc()
		return nil, err
	}
	span := reg.StartSpan("experiments." + id)
	tables, err := e.runner()
	span.End()
	if err != nil {
		reg.Counter("experiments.failed").Inc()
		return nil, err
	}
	reg.Counter("experiments.completed").Inc()
	reg.Counter("experiments.tables").Add(len(tables))
	return tables, nil
}
