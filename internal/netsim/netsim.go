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
	"math"

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
	// Seed drives the link-outage and satellite-failure clocks, the run's
	// only randomness, through the one PCG stream newFaultStream builds
	// from it; runs are deterministic given a seed. A run with neither
	// clock draws nothing, so its seed changes nothing.
	Seed int64
	// fullRecompute makes every fault-driven routing update run the full
	// multi-source BFS instead of the incremental repair path. Both paths
	// produce bit-identical routing tables and Results; the differential
	// tests and the big-grid sweep benchmark set it to run the reference
	// side.
	fullRecompute bool
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

// MaxOfferedSegments caps the segments a run offers, TotalSats × PerSat ×
// DurationSec / SegmentBits, as MaxDesignNodes caps its nodes: it is 17×
// the largest scenario any experiment, test or benchmark runs (9.6e5
// segments), and a bigger load fits under it with bigger segments. It
// bounds what a run holds per offered segment: the live-segment bitmaps
// (2 MiB at the cap), the abandoned record (8 bytes a segment, 128 MiB at
// most) and the sequence numbers a timeout walks. A saturated 8-satellite
// ring offering exactly the cap abandons 5.2e6 segments and runs in 0.7 s
// at 94 MiB peak RSS (2-vCPU Intel Xeon, Go 1.24.0).
const MaxOfferedSegments = 1 << 24

// MaxSteps caps a run's time steps, DurationSec / StepSec, and its epoch
// boundaries, DurationSec / EpochSec. Run reads no context, so without it a
// tiny step or epoch would hold a run, and a daemon admission slot, for
// hours. It is 174× the largest step count any experiment, test, pin or
// benchmark runs (6,000: 600 s at 0.1 s) and 17,476× the largest epoch
// count (60). An 8-satellite ring at 1 Mbit/s runs 2^20 steps, each one an
// epoch boundary, in 0.64 s (2-vCPU Intel Xeon, Go 1.24.0).
const MaxSteps = 1 << 20

// exactBits bounds the bit quantities a step works on: a source's credit,
// a link's step budget and its queue limit. Below it, sums and differences
// of whole-bit segment sizes are exact in float64, which is what lets the
// engine take a run of segments in one closed form.
const exactBits = 1 << 53

// Validate checks the scenario after defaulting. Besides the signs and
// ranges it bounds the run: the steps and epochs stay under MaxSteps, the
// segment size is a whole number of bits, the offered segments stay under
// MaxOfferedSegments, and the per-step bit quantities stay under 2^53. An
// over-cap load is a *DesignError, so a design search scores it infeasible
// instead of failing. Run also bounds the fault clocks' expected flips at
// MaxFaultFlips, once the graph it builds gives the link count.
func (sc Scenario) Validate() error {
	if err := sc.Topology.Validate(); err != nil {
		return err
	}
	perSat := float64(sc.PerSat)
	if !(perSat > 0) || math.IsInf(perSat, 1) {
		return fmt.Errorf("netsim: per-satellite rate %v is not positive and finite", sc.PerSat)
	}
	if !(sc.SegmentBits >= 1 && sc.SegmentBits < exactBits) || sc.SegmentBits != math.Trunc(sc.SegmentBits) {
		return fmt.Errorf("netsim: segment size %v is not a whole number of bits in [1, 2^53)", sc.SegmentBits)
	}
	for _, v := range []float64{sc.StepSec, sc.DurationSec, sc.EpochSec} {
		if !(v > 0) || math.IsInf(v, 1) {
			return fmt.Errorf("netsim: step/duration/epoch %v/%v/%v not positive and finite", sc.StepSec, sc.DurationSec, sc.EpochSec)
		}
	}
	if steps, epochs := sc.DurationSec/sc.StepSec, sc.DurationSec/sc.EpochSec; steps > MaxSteps || epochs > MaxSteps {
		return fmt.Errorf("netsim: %v s at a %v s step and a %v s epoch is %.3g steps and %.3g epochs, over the %d-step ceiling",
			sc.DurationSec, sc.StepSec, sc.EpochSec, steps, epochs, MaxSteps)
	}
	if !(sc.WarmupSec >= 0 && sc.WarmupSec < sc.DurationSec) {
		return fmt.Errorf("netsim: warmup %v outside (0, duration %v)", sc.WarmupSec, sc.DurationSec)
	}
	if tc := sc.Transport; !(tc.RTOSec > 0 && tc.Backoff >= 1 && tc.MaxAttempts >= 1) ||
		math.IsInf(tc.RTOSec, 1) || math.IsInf(tc.Backoff, 1) {
		return fmt.Errorf("netsim: invalid transport %+v", sc.Transport)
	}
	if segs := float64(sc.Topology.TotalSats()) * perSat * sc.DurationSec / sc.SegmentBits; segs > MaxOfferedSegments {
		return designErrf("load", "%d satellites at %v for %v s offer %.3g segments of %v bits, over the %d-segment ceiling",
			sc.Topology.TotalSats(), sc.PerSat, sc.DurationSec, segs, sc.SegmentBits, MaxOfferedSegments)
	}
	if credit := perSat*sc.StepSec + sc.SegmentBits; !(credit < exactBits) {
		return designErrf("load", "a step's credit of %.3g bits reaches 2^53", credit)
	}
	capBps := float64(sc.Topology.Tech.Capacity)
	if budget, queue := capBps*sc.StepSec, sc.Topology.QueueSec*capBps; !(budget < exactBits && queue < exactBits) {
		return fmt.Errorf("netsim: a link's step budget %.3g or queue %.3g bits is not below 2^53", budget, queue)
	}
	return sc.Faults.Validate()
}
