package resilience

import (
	"math"

	"spacedc/internal/sched"
)

// The recovery policies are hazard-adaptive: each one executes the batch
// completely unprotected when the hazard at launch is zero, so that with
// faults disabled every policy reproduces the baseline pipeline bit for
// bit. Protection (and its time/energy overhead) switches on only while
// the environment actually threatens upsets.

// The policies' fixed limits: Retry's executions, first backoff and
// backoff growth, Checkpoint's segment redos per batch (a runaway guard),
// and a DMR pair's executions of one batch.
const (
	retryAttempts      = 3
	retryBackoffSec    = 1
	retryBackoffFactor = 2
	checkpointMaxRedos = 1000
	dmrRounds          = 3
)

// Retry re-executes an upset batch after exponential backoff, up to
// retryAttempts executions — the cheapest software mitigation: no
// steady-state overhead, but every upset costs a full redo and a batch
// that exhausts its attempts is lost.
type Retry struct{}

// Execute implements sched.RecoveryPolicy.
func (Retry) Execute(e sched.BatchExec) sched.BatchOutcome {
	var o sched.BatchOutcome
	now := e.Start
	back := float64(retryBackoffSec)
	for attempt := 0; attempt < retryAttempts; attempt++ {
		if attempt > 0 {
			e.Obs.Counter("resilience.retry.retries").Inc()
			o.Secs += back
			now += back
			back *= retryBackoffFactor
		}
		p := e.RunOnce(now)
		o.Accumulate(p)
		now += p.Secs
		if !p.Upset {
			o.Good = true
			if attempt > 0 {
				e.Obs.Counter("resilience.retry.recovered_batches").Inc()
			}
			return o
		}
	}
	e.Obs.Counter("resilience.retry.exhausted_batches").Inc()
	return o
}

// YoungDalyIntervalSec returns the Young/Daly first-order optimal
// checkpoint interval √(2·δ·MTBF) for a checkpoint cost δ and mean time
// between failures. Degenerate inputs (no cost, no failures) yield +Inf:
// never checkpoint.
func YoungDalyIntervalSec(checkpointCostSec, mtbfSec float64) float64 {
	if checkpointCostSec <= 0 || mtbfSec <= 0 ||
		math.IsInf(mtbfSec, 1) || math.IsNaN(mtbfSec) || math.IsNaN(checkpointCostSec) {
		return math.Inf(1)
	}
	return math.Sqrt(2 * checkpointCostSec * mtbfSec)
}

// Checkpoint implements checkpoint/restart: the batch is cut into
// segments of the Young/Daly optimal interval for the hazard at launch, a
// checkpoint is written after each non-final segment, and an upset redoes
// only the segment in flight plus a restart, at most checkpointMaxRedos
// times per batch. Steady overhead buys bounded redo work — more expensive
// than retry in energy, better in goodput.
type Checkpoint struct {
	CheckpointSec float64 // cost of writing one checkpoint; 0 = 0.5
	RestartSec    float64 // reload cost after an upset; 0 = CheckpointSec
}

// Execute implements sched.RecoveryPolicy.
func (c Checkpoint) Execute(e sched.BatchExec) sched.BatchOutcome {
	var o sched.BatchOutcome
	rate := e.HazardAt(e.Start)
	if rate <= 0 {
		p := e.RunOnce(e.Start)
		o.Accumulate(p)
		o.Good = !p.Upset
		return o
	}
	delta := c.CheckpointSec
	if delta <= 0 {
		delta = 0.5
	}
	restart := c.RestartSec
	if restart <= 0 {
		restart = delta
	}
	tau := YoungDalyIntervalSec(delta, 1/rate)
	power := 0.0
	if e.BaseSecs > 0 {
		power = e.BaseJoules / e.BaseSecs
	}
	now := e.Start
	remaining := e.BaseSecs
	redos := 0
	for remaining > 1e-12 {
		seg := math.Min(tau, remaining)
		segCost := seg
		if remaining-seg > 1e-12 {
			segCost += delta // checkpoint written after every non-final segment
		}
		p := e.RunPass(now, segCost, segCost*power)
		o.Accumulate(p)
		now += p.Secs
		if p.Upset {
			redos++
			e.Obs.Counter("resilience.checkpoint.segment_redos").Inc()
			if redos > checkpointMaxRedos {
				e.Obs.Counter("resilience.checkpoint.abandoned_batches").Inc()
				return o // give up: Good stays false
			}
			o.Secs += restart
			o.Joules += restart * power
			now += restart
			continue // redo the segment from the last checkpoint
		}
		remaining -= seg
	}
	o.Good = true
	return o
}

// Replicated runs N copies of each batch on the device gang and votes.
// With N ≥ 3, frame-granularity majority voting masks silent corruption
// outright (independent replicas corrupt different frames, so every frame
// keeps a clean majority); only device resets can destroy a replica's
// output, and a reset replica re-executes once after reboot. With N == 2
// (dual modular redundancy) divergence is detected but cannot be
// resolved, so the pair re-executes, up to dmrRounds times. Wall time and
// energy scale by the replica count — the costliest tier of §9's ladder.
type Replicated struct {
	N int // replica count; 0 = 3 (TMR)
}

// replicas returns the effective replica count.
func (r Replicated) replicas() int {
	if r.N <= 0 {
		return 3
	}
	return r.N
}

// Execute implements sched.RecoveryPolicy.
func (r Replicated) Execute(e sched.BatchExec) sched.BatchOutcome {
	var o sched.BatchOutcome
	n := r.replicas()
	if rate := e.HazardAt(e.Start); rate <= 0 || n == 1 {
		p := e.RunOnce(e.Start)
		o.Accumulate(p)
		o.Good = !p.Upset
		return o
	}
	now := e.Start
	if n >= 3 {
		// One voted round: each replica runs its full pass; silent upsets
		// are outvoted, resets cost a reboot plus one re-execution. A
		// replica whose redo also resets is written off; the batch
		// survives as long as a voting majority of copies does.
		survivors := n
		for i := 0; i < n; i++ {
			p := e.RunOnce(now)
			o.Accumulate(p)
			now += p.Secs
			if p.Reset {
				e.Obs.Counter("resilience.vote.replica_reruns").Inc()
				p2 := e.RunOnce(now)
				o.Accumulate(p2)
				now += p2.Secs
				if p2.Reset {
					survivors--
					e.Obs.Counter("resilience.vote.replicas_lost").Inc()
				}
			}
		}
		o.Good = survivors >= n/2+1
		if o.Good {
			if o.Upsets > 0 {
				e.Obs.Counter("resilience.vote.outvoted_upsets").Add(o.Upsets)
			}
		} else {
			e.Obs.Counter("resilience.vote.majority_lost_batches").Inc()
		}
		return o
	}
	// Dual modular redundancy: both copies must finish upset-free to
	// agree; any divergence re-executes the pair.
	for round := 0; round < dmrRounds; round++ {
		clean := true
		for i := 0; i < 2; i++ {
			p := e.RunOnce(now)
			o.Accumulate(p)
			now += p.Secs
			if p.Upset {
				clean = false
			}
		}
		if clean {
			o.Good = true
			if round > 0 {
				e.Obs.Counter("resilience.vote.dmr_reexecutions").Add(round)
			}
			return o
		}
	}
	e.Obs.Counter("resilience.vote.dmr_exhausted_batches").Inc()
	return o
}
