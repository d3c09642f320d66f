// Package qos is the traffic-and-QoS layer between the workload generator
// and the simulators: priority-class admission control (token buckets with
// borrowing from lower-priority lenders), deadline-aware load shedding,
// bounded retry with exponential backoff and jitter, and degradation that
// tightens admission by the regime the resilience governor last reported
// entering (its derate and shed transitions) when thermal pressure rises.
//
// The engine in engine.go composes these policies into a time-stepped
// service pipeline — a network stage calibrated from netsim runs feeding a
// compute stage that launches through sched's batch executor — and reports
// per-class SLO attainment under overload and fault campaigns. Everything
// is deterministic given a Scenario: one seeded rand.Rand drives retry
// jitter and fault sampling, and the engine reads the governor directly at
// a fixed point of each step, never a metrics registry, so runs are
// bit-identical at any worker count and with observability on or off.
package qos

import (
	"fmt"
	"math"
	"math/rand"
)

// ClassPolicy is one priority class's token-bucket admission contract.
// Index order is priority order: class 0 is the most important.
type ClassPolicy struct {
	// RatePerSec is the sustained admission rate (token refill rate).
	RatePerSec float64
	// Burst is the bucket depth in tokens (instantaneous headroom above
	// the sustained rate). Zero means RatePerSec (one second of burst).
	Burst float64
	// Borrow lets this class draw from lower-priority lenders when its own
	// bucket runs dry — how urgent tasking rides through its own burst
	// without inflating steady-state capacity.
	Borrow bool
	// Lend offers this class's spare tokens to higher-priority borrowers;
	// when several lenders have spare tokens the fullest bucket donates.
	Lend bool
}

// Admission is a set of per-class token buckets with borrowing.
// Build with NewAdmission; not safe for concurrent use (the engine owns
// it).
type Admission struct {
	pol    []ClassPolicy
	tokens []float64
	last   float64
}

// NewAdmission builds an admission gate. An empty policy set admits
// everything (the "open" baseline).
func NewAdmission(pol []ClassPolicy) (*Admission, error) {
	a := &Admission{pol: append([]ClassPolicy(nil), pol...), tokens: make([]float64, len(pol))}
	for i := range a.pol {
		p := &a.pol[i]
		if p.RatePerSec < 0 || math.IsNaN(p.RatePerSec) || math.IsInf(p.RatePerSec, 0) {
			return nil, fmt.Errorf("qos: class %d negative admission rate %v", i, p.RatePerSec)
		}
		if p.Burst < 0 || math.IsNaN(p.Burst) {
			return nil, fmt.Errorf("qos: class %d negative burst %v", i, p.Burst)
		}
		if p.Burst == 0 {
			p.Burst = p.RatePerSec
		}
		a.tokens[i] = p.Burst // start full so t=0 arrivals see the burst headroom
	}
	return a, nil
}

// refill tops the buckets up for the elapsed time, with refill rates
// scaled by the engine's current admission scale. Time never runs
// backward (retries re-entering within a step may present slightly older
// stamps; those simply skip the refill).
func (a *Admission) refill(t, scale float64) {
	dt := t - a.last
	if dt <= 0 {
		return
	}
	a.last = t
	for i := range a.tokens {
		a.tokens[i] += a.pol[i].RatePerSec * scale * dt
		if a.tokens[i] > a.pol[i].Burst {
			a.tokens[i] = a.pol[i].Burst
		}
	}
}

// Admit decides one request at time t. scale in (0, 1] throttles the
// refill rates (degradation). A class whose bucket is dry may borrow one
// token from the fullest lower-priority lender. An Admission with no
// classes admits everything.
func (a *Admission) Admit(t float64, class int, scale float64) bool {
	if len(a.pol) == 0 {
		return true
	}
	a.refill(t, scale)
	if a.tokens[class] >= 1 {
		a.tokens[class]--
		return true
	}
	if !a.pol[class].Borrow {
		return false
	}
	donor, best := -1, 0.0
	for j := class + 1; j < len(a.pol); j++ {
		if !a.pol[j].Lend || a.tokens[j] < 1 {
			continue
		}
		if a.tokens[j] > best {
			donor, best = j, a.tokens[j]
		}
	}
	if donor < 0 {
		return false
	}
	a.tokens[donor]--
	return true
}

// RetryPolicy bounds re-submission of shed or failed requests:
// exponential backoff with jitter, a total-attempts cap, and a bounded
// pending queue (retryQueueLimit) so retries cannot themselves become an
// overload amplifier.
type RetryPolicy struct {
	// MaxAttempts is the total number of delivery attempts including the
	// first; values ≤ 1 disable retry.
	MaxAttempts int
	// BaseBackoffSec is the delay before the first retry. Zero means 1 s.
	BaseBackoffSec float64
	// BackoffFactor multiplies the delay per attempt. Zero means 2.
	BackoffFactor float64
	// JitterFrac spreads each delay uniformly by ±JitterFrac of itself
	// (decorrelating retry storms); 0 disables jitter.
	JitterFrac float64
}

// withDefaults fills zero fields.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseBackoffSec == 0 {
		p.BaseBackoffSec = 1
	}
	if p.BackoffFactor == 0 {
		p.BackoffFactor = 2
	}
	return p
}

// validate checks the (defaulted) policy.
func (p RetryPolicy) validate() error {
	if p.BaseBackoffSec < 0 || math.IsNaN(p.BaseBackoffSec) {
		return fmt.Errorf("qos: negative retry backoff %v", p.BaseBackoffSec)
	}
	if p.BackoffFactor < 1 {
		return fmt.Errorf("qos: retry backoff factor %v below 1", p.BackoffFactor)
	}
	if p.JitterFrac < 0 || p.JitterFrac > 1 {
		return fmt.Errorf("qos: retry jitter %v outside [0, 1]", p.JitterFrac)
	}
	return nil
}

// enabled reports whether the policy retries at all.
func (p RetryPolicy) enabled() bool { return p.MaxAttempts > 1 }

// backoff returns the delay before retry number n (1-based), drawing
// jitter from rng. No randomness is consumed when jitter is disabled.
func (p RetryPolicy) backoff(n int, rng *rand.Rand) float64 {
	d := p.BaseBackoffSec * math.Pow(p.BackoffFactor, float64(n-1))
	if p.JitterFrac > 0 {
		d *= 1 + p.JitterFrac*(2*rng.Float64()-1)
	}
	return d
}
