// Package pool is the shared deterministic worker pool underneath every
// fan-out in the repo: the experiment sweep (experiments.RunWorkers),
// the netsim scenario sweep (netsim.Sweep), and the experiment drivers
// that decompose their internal grids into sub-jobs (ext-netsim, ext-lossy,
// table4). One global token budget bounds concurrency across all of them,
// so a sweep nested inside a pooled experiment adds parallelism only while
// spare cores exist — never CPU oversubscription.
//
// The pool is nesting-aware by construction: the goroutine that calls Map
// always executes jobs inline, and extra workers are goroutines gated by a
// non-blocking token acquire. A job that itself calls Map therefore makes
// progress on its own sub-jobs regardless of the token budget — pool-in-pool
// cannot deadlock even at a budget of zero, where every Map simply runs
// serially on its caller.
//
// Determinism contract: jobs are claimed in ID order, each job writes only
// state owned by its ID, and Map reports the lowest-ID error. The result of
// a Map is therefore independent of the token budget, the worker count, and
// the scheduling interleaving — a serial run is bit-identical to a parallel
// one, which the determinism suites in experiments and netsim lock down.
package pool

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spacedc/internal/obs"
)

// Pool bounds helper-goroutine concurrency with a token budget. The zero
// Pool is unusable — build one with New, or use the shared pool through
// the package-level Map and MapObs.
type Pool struct {
	tokens chan struct{}
}

// New builds a pool whose token budget caps the helper goroutines alive
// across every concurrent Map on it. The calling goroutine of each Map runs
// jobs inline without holding a token, so total job concurrency is (active
// Map callers) + budget. budget < 0 means one helper per CPU beyond the
// caller (NumCPU-1); budget 0 makes every Map serial.
func New(budget int) *Pool {
	if budget < 0 {
		budget = runtime.NumCPU() - 1
	}
	p := &Pool{tokens: make(chan struct{}, budget)}
	for i := 0; i < budget; i++ {
		p.tokens <- struct{}{}
	}
	return p
}

// shared is the process-wide pool: one caller plus NumCPU-1 helpers keeps
// the machine fully used without oversubscription, no matter how deeply
// sweeps nest inside experiments.
var shared = New(-1)

// MapObs runs fn over job IDs 0..n-1 and returns the lowest-ID error (nil
// when every job succeeded). Each execution slot records its wall-clock job
// timings into "<prefix>.workerNN.run_secs" and its completed-job count into
// "<prefix>.workerNN.runs", exposing pool imbalance exactly like the
// pre-pool sweep runners did. A nil registry records nothing.
//
// slots caps this Map's concurrency: slot 0 is the calling goroutine, which
// always participates, and slots 1..slots-1 are helper goroutines spawned
// only while the pool has spare tokens (re-checked as tokens free up, so a
// sweep that starts while the machine is busy still ramps up later). slots
// ≤ 0 means one slot per CPU; slots = 1 runs serially on the caller without
// touching the token budget. Jobs are claimed in increasing ID order; a
// job's effects must be confined to state its ID owns, which makes the
// result independent of slots, budget, and scheduling.
func (p *Pool) MapObs(n, slots int, reg *obs.Registry, prefix string, fn func(id int) error) error {
	if n <= 0 {
		return nil
	}
	if slots <= 0 {
		slots = runtime.NumCPU()
	}
	if slots > n {
		slots = n
	}
	errs := make([]error, n)
	var next atomic.Int64

	// run drains jobs as execution slot `slot` until none remain.
	run := func(slot int) {
		var (
			hRun    *obs.Histogram
			ctrRuns *obs.Counter
		)
		if reg != nil {
			hRun = reg.Histogram(fmt.Sprintf("%s.worker%02d.run_secs", prefix, slot), obs.TimeBuckets)
			ctrRuns = reg.Counter(fmt.Sprintf("%s.worker%02d.runs", prefix, slot))
		}
		for {
			id := int(next.Add(1)) - 1
			if id >= n {
				return
			}
			var t0 time.Time
			if reg != nil {
				t0 = time.Now()
			}
			errs[id] = fn(id)
			if reg != nil {
				hRun.Observe(time.Since(t0).Seconds())
				ctrRuns.Inc()
			}
		}
	}

	if slots > 1 {
		// The spawner blocks on the token budget so helpers keep arriving
		// as other Maps release tokens; it never blocks the caller, which
		// is already working inline. stop cancels it the moment the caller
		// runs out of jobs to claim.
		stop := make(chan struct{})
		var helpers, spawner sync.WaitGroup
		spawner.Add(1)
		go func() {
			defer spawner.Done()
			for slot := 1; slot < slots; slot++ {
				select {
				case tok := <-p.tokens:
					if next.Load() >= int64(n) {
						p.tokens <- tok
						return
					}
					helpers.Add(1)
					go func(slot int) {
						defer helpers.Done()
						defer func() { p.tokens <- tok }()
						run(slot)
					}(slot)
				case <-stop:
					return
				}
			}
		}()
		run(0)
		close(stop)
		spawner.Wait()
		helpers.Wait()
	} else {
		run(0)
	}

	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn over job IDs 0..n-1 on the shared pool.
func Map(n, slots int, fn func(id int) error) error {
	return shared.MapObs(n, slots, nil, "", fn)
}

// MapObs runs fn over job IDs 0..n-1 on the shared pool with per-worker
// observability.
func MapObs(n, slots int, reg *obs.Registry, prefix string, fn func(id int) error) error {
	return shared.MapObs(n, slots, reg, prefix, fn)
}
