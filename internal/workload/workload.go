// Package workload generates the tasking demand a space-microdatacenter
// constellation serves: a deterministic stream of EO tasking requests from
// a user population of millions, shaped by a diurnal sinusoid (people task
// satellites while awake) plus disaster-response surges that start at given
// onsets and decay exponentially while responders work the event.
//
// The generator is a non-homogeneous Poisson process sampled by thinning,
// streamed one request at a time: memory is O(bursts), never O(requests),
// so a run can push millions of requests through the QoS layer without
// materializing them, and New caps a run's candidate draws at MaxDraws.
// Every draw comes from one seeded rand.Rand, so a spec (including its
// seed) fully determines the stream — bit-identical across runs and worker
// counts, the same contract the simulators keep.
//
// Each request carries a priority class drawn from the spec's mix; the
// class fixes its deadline (the per-class latency SLO), its network size
// in bits (imagery to move), and its compute size in frames (inference to
// run). internal/qos consumes the stream through admission control into
// the netsim/sched-derived service pipeline.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Defaults applied by Spec.withDefaults.
const (
	DefaultDiurnalPeriodSec = 86400
	DefaultBurstDecaySec    = 300
)

// Class is one priority tier of tasking demand. Lower Priority numbers are
// more important; the qos layer serves classes in strict priority order.
type Class struct {
	// Name labels the class in reports ("tasking", "best-effort", …).
	Name string
	// Share is the fraction of requests in this class; shares must sum
	// to 1 within a small tolerance.
	Share float64
	// DeadlineSec is the end-to-end latency SLO: a request completing
	// later has missed its deadline (and deadline-aware shedding drops
	// requests that cannot make it).
	DeadlineSec float64
	// Bits is the network payload per request (imagery segments moved
	// across the constellation).
	Bits float64
	// Frames is the compute size per request (EO frames to run inference
	// on at the SµDC).
	Frames int
}

// Request is one tasking request on the stream.
type Request struct {
	// TSec is the arrival time in simulation seconds.
	TSec float64
	// Class indexes Spec.Classes.
	Class int
}

// Spec parameterizes the demand stream.
type Spec struct {
	// BaseRatePerSec is the diurnal-mean arrival rate in requests per
	// second (a population of millions of users aggregates to thousands
	// of requests per second constellation-wide).
	BaseRatePerSec float64
	// DiurnalAmp in [0, 1) swings the rate ±Amp around the base over the
	// diurnal period: rate(t) = base·(1 + amp·sin(2πt/period)).
	DiurnalAmp float64
	// DiurnalPeriodSec is the sinusoid period. Zero means a day.
	DiurnalPeriodSec float64

	// BurstOnsets are the disaster-response burst onset times — how a
	// scenario makes a fault campaign land mid-surge.
	BurstOnsets []float64
	// BurstPeakPerSec is the extra request rate at a burst's onset; it
	// decays as exp(-(t-onset)/BurstDecaySec).
	BurstPeakPerSec float64
	// BurstDecaySec is the burst decay constant. Zero means 300 s.
	BurstDecaySec float64

	// Classes is the priority mix. Empty means DefaultClasses().
	Classes []Class

	// DurationSec bounds the stream.
	DurationSec float64
	// Seed drives all randomness; the stream is deterministic given the
	// spec.
	Seed int64
}

// DefaultClasses is the three-tier mix the ext-workload study uses:
// urgent tasking (tight SLO, small payloads), standard tasking, and
// best-effort bulk collection that exists to be shed under overload.
func DefaultClasses() []Class {
	return []Class{
		{Name: "urgent", Share: 0.15, DeadlineSec: 30, Bits: 20e6, Frames: 1},
		{Name: "standard", Share: 0.35, DeadlineSec: 120, Bits: 50e6, Frames: 2},
		{Name: "best-effort", Share: 0.50, DeadlineSec: 600, Bits: 100e6, Frames: 4},
	}
}

// withDefaults fills zero fields.
func (s Spec) withDefaults() Spec {
	if s.DiurnalPeriodSec == 0 {
		s.DiurnalPeriodSec = DefaultDiurnalPeriodSec
	}
	if s.BurstDecaySec == 0 {
		s.BurstDecaySec = DefaultBurstDecaySec
	}
	if len(s.Classes) == 0 {
		s.Classes = DefaultClasses()
	}
	return s
}

// Validate checks the spec after defaulting.
func (s Spec) Validate() error {
	if s.BaseRatePerSec <= 0 || math.IsNaN(s.BaseRatePerSec) || math.IsInf(s.BaseRatePerSec, 0) {
		return fmt.Errorf("workload: non-positive base rate %v", s.BaseRatePerSec)
	}
	if s.DiurnalAmp < 0 || s.DiurnalAmp >= 1 {
		return fmt.Errorf("workload: diurnal amplitude %v outside [0, 1)", s.DiurnalAmp)
	}
	if s.DiurnalPeriodSec <= 0 {
		return fmt.Errorf("workload: non-positive diurnal period %v", s.DiurnalPeriodSec)
	}
	if s.DurationSec <= 0 {
		return fmt.Errorf("workload: non-positive duration %v", s.DurationSec)
	}
	if s.BurstDecaySec <= 0 {
		return fmt.Errorf("workload: non-positive burst decay %v", s.BurstDecaySec)
	}
	if len(s.BurstOnsets) > 0 && s.BurstPeakPerSec <= 0 {
		return fmt.Errorf("workload: bursts enabled with non-positive peak %v", s.BurstPeakPerSec)
	}
	for _, on := range s.BurstOnsets {
		if on < 0 || on >= s.DurationSec || math.IsNaN(on) {
			return fmt.Errorf("workload: burst onset %v outside [0, duration %v)", on, s.DurationSec)
		}
	}
	sum := 0.0
	for i, c := range s.Classes {
		if c.Share < 0 || c.Share > 1 || math.IsNaN(c.Share) {
			return fmt.Errorf("workload: class %d share %v outside [0, 1]", i, c.Share)
		}
		if c.DeadlineSec <= 0 {
			return fmt.Errorf("workload: class %d non-positive deadline %v", i, c.DeadlineSec)
		}
		if c.Bits <= 0 || c.Frames <= 0 {
			return fmt.Errorf("workload: class %d non-positive size (bits %v, frames %d)", i, c.Bits, c.Frames)
		}
		sum += c.Share
	}
	if math.Abs(sum-1) > 1e-6 {
		return fmt.Errorf("workload: class shares sum to %v, want 1", sum)
	}
	return nil
}

// Generator streams one spec's requests in arrival order. Build with New;
// not safe for concurrent use (each worker owns its own generator).
type Generator struct {
	spec   Spec
	rng    *rand.Rand
	rmax   float64   // thinning envelope: rate(t) ≤ rmax for all t
	onsets []float64 // sorted burst onset times
	cum    []float64 // cumulative class shares

	// Streaming state: the candidate clock and the running burst sum
	// S(t) = Σ_{onsets ≤ t} peak·exp(-(t-onset)/τ), advanced lazily so
	// rate evaluation is O(1) amortized in the onset count.
	t         float64
	burstSum  float64
	burstLast float64
	nextOnset int
}

// MaxDraws caps a run's expected candidate draws, the envelope rate ×
// DurationSec: Next reads no context, so a high rate or a long duration
// would hold a run, and a daemon admission slot, for hours. It is 18× the
// largest count any experiment, test, pin, example or benchmark makes
// (900,000). An ext-workload scenario at the cap (7.4 million requests)
// runs in 1.8 s through qos (2-vCPU Intel Xeon, Go 1.24.0).
const MaxDraws = 1 << 24

// New builds a generator. The spec (with defaults applied) is validated
// once here; Next never fails.
func New(spec Spec) (*Generator, error) {
	sp := spec.withDefaults()
	if err := sp.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{spec: sp, rng: rand.New(rand.NewSource(sp.Seed))}
	g.onsets = append(g.onsets, sp.BurstOnsets...)
	sort.Float64s(g.onsets)

	// Thinning envelope: the diurnal term is bounded by base·(1+amp) and
	// the burst sum is piecewise-decaying, so its maximum over the run
	// occurs immediately after an onset — a single forward pass over the
	// sorted onsets finds the exact bound.
	g.rmax = sp.BaseRatePerSec * (1 + sp.DiurnalAmp)
	if len(g.onsets) > 0 {
		s, last, peak := 0.0, 0.0, 0.0
		for _, on := range g.onsets {
			s = s*math.Exp(-(on-last)/sp.BurstDecaySec) + sp.BurstPeakPerSec
			last = on
			if s > peak {
				peak = s
			}
		}
		g.rmax += peak
	}
	if draws := g.rmax * sp.DurationSec; !(draws <= MaxDraws) {
		return nil, fmt.Errorf("workload: an envelope of %.3g req/s over %v s is %.3g candidate draws, over the %d-draw ceiling",
			g.rmax, sp.DurationSec, draws, MaxDraws)
	}

	g.cum = make([]float64, len(sp.Classes))
	sum := 0.0
	for i, c := range sp.Classes {
		sum += c.Share
		g.cum[i] = sum
	}
	g.cum[len(g.cum)-1] = 1 // absorb float error so the last class catches 1.0 draws
	return g, nil
}

// rateAt returns the instantaneous arrival rate at time t: the diurnal
// sinusoid plus every burst's decayed contribution. The burst sum decays
// forward from its last evaluation instead of rescanning the onset list,
// so t must not decrease across calls.
func (g *Generator) rateAt(t float64) float64 {
	sp := g.spec
	g.burstSum *= math.Exp(-(t - g.burstLast) / sp.BurstDecaySec)
	for g.nextOnset < len(g.onsets) && g.onsets[g.nextOnset] <= t {
		g.burstSum += sp.BurstPeakPerSec * math.Exp(-(t-g.onsets[g.nextOnset])/sp.BurstDecaySec)
		g.nextOnset++
	}
	g.burstLast = t
	return sp.BaseRatePerSec*(1+sp.DiurnalAmp*math.Sin(2*math.Pi*t/sp.DiurnalPeriodSec)) + g.burstSum
}

// Next returns the next request on the stream, or ok=false when the spec's
// duration is exhausted. Candidates arrive as a homogeneous Poisson process
// at the envelope rate and are accepted with probability rate(t)/envelope
// (Lewis–Shedler thinning), which samples the non-homogeneous process
// exactly. Amortized O(1) per candidate; no allocation.
func (g *Generator) Next() (Request, bool) {
	for {
		g.t += g.rng.ExpFloat64() / g.rmax
		if g.t >= g.spec.DurationSec {
			return Request{}, false
		}
		if g.rng.Float64()*g.rmax > g.rateAt(g.t) {
			continue // thinned out
		}
		u := g.rng.Float64()
		class := sort.SearchFloat64s(g.cum, u)
		if class == len(g.cum) {
			class = len(g.cum) - 1
		}
		return Request{TSec: g.t, Class: class}, true
	}
}

// Classes returns the generator's (defaulted) class mix.
func (g *Generator) Classes() []Class { return g.spec.Classes }

// MeanBits returns the share-weighted mean network payload per request.
func (s Spec) MeanBits() float64 {
	sp := s.withDefaults()
	m := 0.0
	for _, c := range sp.Classes {
		m += c.Share * c.Bits
	}
	return m
}

// MeanFrames returns the share-weighted mean compute size per request.
func (s Spec) MeanFrames() float64 {
	sp := s.withDefaults()
	m := 0.0
	for _, c := range sp.Classes {
		m += c.Share * float64(c.Frames)
	}
	return m
}
