// Package netsim is a time-stepped, flow-level simulator of the
// EO-constellation → SµDC relay network. Where internal/isl checks the
// paper's Table 8 capacity model against a *static* flow-conservation
// graph, netsim runs the network forward in time: the link graph (ring,
// k-list, split clusters, GEO star) is built once per run, per-link FIFO
// queues carry segmented flows under shortest-path routing that is
// repaired whenever the fault state changes and recomputed in full at a
// configurable epoch interval, a fault layer injects link outages (random
// pointing loss and eclipse sweeps) and whole-satellite failures with
// MTBF/MTTR dynamics, and a transport layer retransmits lost segments with
// exponential backoff. A metrics layer records per-link utilization,
// queue depth, and drops plus per-flow delivered throughput and latency
// percentiles; a worker-pool sweep runner executes many scenarios in
// parallel across cores.
//
// At zero fault rate the simulator's steady state reproduces the
// closed-form models: the max supportable EO-satellite count matches
// isl.SupportableEOSats (Table 8) and the bottleneck-link utilization
// follows the Fig 11 ISL-bottleneck shape.
package netsim

import (
	"fmt"

	"spacedc/internal/obs"
	"spacedc/internal/units"
)

// Default simulation parameters, applied by Scenario.withDefaults.
const (
	DefaultStepSec     = 0.1
	DefaultEpochSec    = 60 // interval between full route recomputes
	DefaultDurationSec = 300
	DefaultSegmentBits = 1e6
	DefaultQueueSec    = 1.0
	DefaultRTOSec      = 5
	DefaultBackoff     = 2
	DefaultMaxAttempts = 5
)

// TransportConfig tunes the retransmission behaviour of every flow source.
type TransportConfig struct {
	// RTOSec is the initial retransmission timeout after a segment is
	// first sent. Zero means DefaultRTOSec.
	RTOSec float64
	// Backoff multiplies the timeout on every retry (exponential
	// backoff). Zero means DefaultBackoff.
	Backoff float64
	// MaxAttempts is the total number of transmission attempts per
	// segment (1 = fire-and-forget, no retransmission). Zero means
	// DefaultMaxAttempts.
	MaxAttempts int
}

// Scenario is one netsim run: a topology under a load, a fault regime, and
// a transport policy, simulated for DurationSec at StepSec resolution.
type Scenario struct {
	Name     string
	Topology TopologySpec
	// PerSat is each EO satellite's steady generation rate.
	PerSat units.DataRate
	// SegmentBits quantizes each flow into transport segments. Zero means
	// DefaultSegmentBits.
	SegmentBits float64
	Faults      FaultConfig
	Transport   TransportConfig
	// StepSec is the simulation time step. Zero means DefaultStepSec.
	StepSec float64
	// EpochSec is the interval between full route recomputes; fault
	// transitions in between take the incremental repair. Zero means
	// DefaultEpochSec.
	EpochSec float64
	// DurationSec is the simulated span. Zero means DefaultDurationSec.
	DurationSec float64
	// WarmupSec excludes the initial transient from every metric. Zero
	// means 10% of DurationSec.
	WarmupSec float64
	// Seed drives the fault and jitter randomness; runs are deterministic
	// given a seed.
	Seed int64
	// FullRecompute is a validation knob: when set, every fault-driven
	// routing update runs the full multi-source BFS instead of the
	// incremental repair path. Both paths produce bit-identical routing
	// tables and Results — the differential tests and the big-grid sweep
	// benchmark run both sides to prove it — so production scenarios leave
	// this false and keep the repair path's speed.
	FullRecompute bool
	// Obs, when non-nil, receives the run's metrics, per-step samples, and
	// spans (see internal/obs). Observability is write-only: it never
	// alters the simulation, so instrumented runs stay bit-identical to
	// bare ones. Scenarios sharing one registry must not run concurrently
	// on a sim-clock registry (the clock would interleave); give parallel
	// sweep scenarios their own registries or leave Obs nil.
	Obs *obs.Registry
}

// withDefaults fills zero fields with the package defaults.
func (sc Scenario) withDefaults() Scenario {
	if sc.StepSec == 0 {
		sc.StepSec = DefaultStepSec
	}
	if sc.EpochSec == 0 {
		sc.EpochSec = DefaultEpochSec
	}
	if sc.DurationSec == 0 {
		sc.DurationSec = DefaultDurationSec
	}
	if sc.WarmupSec == 0 {
		sc.WarmupSec = 0.1 * sc.DurationSec
	}
	if sc.SegmentBits == 0 {
		sc.SegmentBits = DefaultSegmentBits
	}
	if sc.Transport.RTOSec == 0 {
		sc.Transport.RTOSec = DefaultRTOSec
	}
	if sc.Transport.Backoff == 0 {
		sc.Transport.Backoff = DefaultBackoff
	}
	if sc.Transport.MaxAttempts == 0 {
		sc.Transport.MaxAttempts = DefaultMaxAttempts
	}
	if sc.Topology.QueueSec == 0 {
		sc.Topology.QueueSec = DefaultQueueSec
	}
	sc.Faults = sc.Faults.withDefaults()
	return sc
}

// Validate checks the scenario after defaulting.
func (sc Scenario) Validate() error {
	if err := sc.Topology.Validate(); err != nil {
		return err
	}
	if sc.PerSat <= 0 {
		return fmt.Errorf("netsim: non-positive per-satellite rate %v", sc.PerSat)
	}
	if sc.SegmentBits <= 0 {
		return fmt.Errorf("netsim: non-positive segment size %v", sc.SegmentBits)
	}
	if sc.StepSec <= 0 || sc.DurationSec <= 0 || sc.EpochSec <= 0 {
		return fmt.Errorf("netsim: non-positive step/duration/epoch")
	}
	if sc.WarmupSec < 0 || sc.WarmupSec >= sc.DurationSec {
		return fmt.Errorf("netsim: warmup %v outside (0, duration %v)", sc.WarmupSec, sc.DurationSec)
	}
	if sc.Transport.RTOSec <= 0 || sc.Transport.Backoff < 1 || sc.Transport.MaxAttempts < 1 {
		return fmt.Errorf("netsim: invalid transport %+v", sc.Transport)
	}
	return sc.Faults.Validate()
}
