// Package sched is a discrete-event simulator of a space microdatacenter's
// processing pipeline: frames arrive from the constellation over ISLs,
// queue on board, are batched, and are processed by a compute device whose
// throughput, power, and batch response come from the gpusim models.
//
// It puts numbers behind two of the paper's qualitative arguments: the §6
// claim that SµDCs act as data integrators (absorbing per-satellite
// generation variation that would force worst-case design on homogeneous
// constellations), and the §9 latency/energy trade — batching harder is
// more energy-efficient but holds frames longer, which only
// latency-insensitive applications can accept.
package sched

import (
	"fmt"
	"math"
	"math/rand/v2"

	"spacedc/internal/obs"
)

// Processor abstracts the compute device: the time and energy to run one
// batch. DeviceProcessor adapts a gpusim model; tests use synthetic ones.
type Processor interface {
	// Process returns the wall-clock seconds and energy in joules to
	// process a batch of `frames` frames totaling `pixels` pixels.
	Process(frames int, pixels float64) (seconds, joules float64)
}

// Config describes one simulation run.
type Config struct {
	// Satellites is the number of EO satellites feeding the SµDC.
	Satellites int
	// FramePeriodSec is the ground-track frame period (paper: 1.5 s).
	FramePeriodSec float64
	// PixelsPerFrame is the size of one frame at the operating
	// resolution.
	PixelsPerFrame float64
	// KeepProb returns the probability that a satellite's frame survives
	// early discard at simulation time t. Nil keeps everything. Only a
	// probability strictly between 0 and 1 takes a draw (see discarded).
	// This is where per-satellite variation (ocean vs land, day vs night)
	// enters.
	KeepProb func(sat int, t float64) float64
	// QueueLimit caps the on-board frame queue; arrivals beyond it are
	// dropped (and counted). Zero means 4× Satellites.
	QueueLimit int
	// TargetBatch is the batch size the scheduler prefers to form.
	TargetBatch int
	// MaxBatch caps a single batch. Zero means TargetBatch.
	MaxBatch int
	// MaxWaitSec bounds how long the oldest queued frame may wait before
	// the scheduler launches a partial batch. Zero means no bound.
	MaxWaitSec float64
	// DurationSec is the simulated span.
	DurationSec float64
	// Seed drives all randomness in the run: early-discard draws and fault
	// sampling share one PCG stream built from it by newStream, so a
	// (Config, Processor) pair is fully deterministic.
	Seed int64
	// Faults enables radiation-driven fault injection (nil = fault-free;
	// a nil Faults run is bit-for-bit identical to the pre-fault model).
	Faults *FaultConfig
	// Thermal lets a thermal model derate the device (nil = never).
	Thermal ThermalHook
	// Obs, when non-nil, receives per-batch spans, queue-wait and
	// service-time histograms, and upset counters (see
	// internal/obs). Observability never feeds back into the simulation;
	// instrumented runs are bit-identical to bare ones.
	Obs *obs.Registry
}

// FaultConfig injects radiation-driven upsets into the pipeline: a
// time-varying hazard rate (SEUs per second of busy compute), a split
// between silent batch corruption and hard device resets, and a recovery
// policy that shapes how an upset batch is re-executed.
type FaultConfig struct {
	// Hazard returns the instantaneous upset rate in events per second of
	// busy compute at simulation time t. Nil or non-positive = no upsets.
	Hazard func(t float64) float64
	// ResetFraction is the fraction of upsets that hard-reset the device
	// (aborting the pass and costing ResetMTTRSec of downtime) instead of
	// silently corrupting the batch in flight.
	ResetFraction float64
	// ResetMTTRSec is the reboot time after a device-reset upset.
	ResetMTTRSec float64
	// Recovery is the mitigation policy applied to upset batches. Nil
	// means no mitigation: an upset batch completes but its results are
	// corrupt, and a reset aborts it outright.
	Recovery RecoveryPolicy
	// PauseActive reports whether batch launches are administratively
	// paused at time t (the §9 SAA compute-pause strategy). Nil = never.
	PauseActive func(t float64) bool
}

// validate checks the fault configuration.
func (f *FaultConfig) validate() error {
	if f.ResetFraction < 0 || f.ResetFraction > 1 {
		return fmt.Errorf("sched: reset fraction %v outside [0,1]", f.ResetFraction)
	}
	if f.ResetMTTRSec < 0 || math.IsNaN(f.ResetMTTRSec) || math.IsInf(f.ResetMTTRSec, 0) {
		return fmt.Errorf("sched: invalid reset MTTR %v", f.ResetMTTRSec)
	}
	return nil
}

// ThermalHook lets a thermal model throttle the device. The simulator
// consults Factor at each batch launch and stretches the service time by
// 1/factor (power capping: same energy, longer execution), then reports
// the dissipated heat back through Dissipated.
type ThermalHook interface {
	// Factor returns the device capacity factor in (0, 1] at time t.
	Factor(t float64) float64
	// Dissipated reports joules of heat released over [start, start+secs].
	Dissipated(start, secs, joules float64)
}

// BatchExec hands a RecoveryPolicy everything it needs to execute one
// batch under upsets: the fault-free operating point, the hazard model,
// and the run's one random stream (Device.Rng).
type BatchExec struct {
	Start         float64 // launch time
	BaseSecs      float64 // fault-free service time of one full pass
	BaseJoules    float64
	Hazard        func(t float64) float64
	ResetFraction float64
	ResetMTTRSec  float64
	Rng           *rand.Rand // the run's one PCG stream, shared by every batch
}

// HazardAt returns the sanitized upset rate at time t.
func (e BatchExec) HazardAt(t float64) float64 {
	if e.Hazard == nil {
		return 0
	}
	r := e.Hazard(t)
	if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return 0
	}
	return r
}

// PassResult is one unprotected execution pass over (part of) a batch.
type PassResult struct {
	Secs    float64 // wall time of the pass, including any reset downtime
	Joules  float64
	Upset   bool    // an SEU struck during the pass
	Reset   bool    // the upset hard-reset the device
	DownSec float64 // reboot share of Secs
}

// RunPass executes a compute slice of secs seconds / joules energy
// starting at start, sampling at most one upset from the hazard rate. No
// randomness is consumed when the hazard is zero, so zero-hazard runs
// reproduce fault-free runs bit for bit. An upset draws its kind only when
// ResetFraction lies strictly between 0 and 1; at 0 (or NaN) it is always
// silent and at 1 always a reset, with no draw. A silent upset lets the
// pass run to completion (the device does not know); a reset truncates it
// at the upset and adds ResetMTTRSec of downtime.
func (e BatchExec) RunPass(start, secs, joules float64) PassResult {
	rate := e.HazardAt(start)
	if rate <= 0 || secs <= 0 {
		return PassResult{Secs: secs, Joules: joules}
	}
	u := e.Rng.ExpFloat64() / rate
	if u >= secs {
		return PassResult{Secs: secs, Joules: joules}
	}
	reset := e.ResetFraction >= 1
	if e.ResetFraction > 0 && e.ResetFraction < 1 {
		reset = e.Rng.Float64() < e.ResetFraction
	}
	if reset {
		return PassResult{
			Secs:    u + e.ResetMTTRSec,
			Joules:  joules * u / secs,
			Upset:   true,
			Reset:   true,
			DownSec: e.ResetMTTRSec,
		}
	}
	return PassResult{Secs: secs, Joules: joules, Upset: true}
}

// RunOnce is RunPass over the whole batch.
func (e BatchExec) RunOnce(start float64) PassResult {
	return e.RunPass(start, e.BaseSecs, e.BaseJoules)
}

// BatchOutcome is a policy's verdict on one batch execution.
type BatchOutcome struct {
	Secs    float64 // total device occupancy: compute + waits + downtime
	Joules  float64
	Good    bool // results delivered uncorrupted
	Upsets  int
	Resets  int
	DownSec float64
}

// Accumulate folds one pass into the outcome tally.
func (o *BatchOutcome) Accumulate(p PassResult) {
	o.Secs += p.Secs
	o.Joules += p.Joules
	o.DownSec += p.DownSec
	if p.Upset {
		o.Upsets++
	}
	if p.Reset {
		o.Resets++
	}
}

// RecoveryPolicy shapes how a batch executes under upsets. Policies must
// draw randomness only from the BatchExec's Rng (determinism) and must
// return the fault-free operating point untouched when the hazard at
// launch is zero, so that disabled faults leave the pipeline bit-for-bit
// identical to the baseline. Implementations beyond the built-in
// no-mitigation baseline live in internal/resilience.
type RecoveryPolicy interface {
	Execute(e BatchExec) BatchOutcome
}

// noMitigation is the built-in default policy: one pass, corrupt on any
// upset.
type noMitigation struct{}

func (noMitigation) Execute(e BatchExec) BatchOutcome {
	var o BatchOutcome
	p := e.RunOnce(e.Start)
	o.Accumulate(p)
	o.Good = !p.Upset
	return o
}

// streamSched is the PCG stream constant of Simulate's random source: the
// ASCII of "sched". Engines that read one seed (optimize hands the same
// seed to netsim and sched) then still draw independent streams.
const streamSched = 0x7363686564

// newStream returns the run's one random stream for seed.
func newStream(seed int64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), streamSched))
}

// discarded decides whether an arrival whose frame survives early discard
// with probability keep is discarded. It draws only when 0 < keep < 1, the
// one range in which a draw can decide: keep ≤ 0 always discards, and keep
// ≥ 1 or NaN always keeps, as rng.Float64() >= keep would.
func discarded(rng *rand.Rand, keep float64) bool {
	if keep > 0 && keep < 1 {
		return rng.Float64() >= keep
	}
	return keep <= 0
}

// MaxSatellites caps Satellites, since Simulate queues one event per
// satellite up front. It is 1,024× the largest count any experiment, test,
// pin, example or benchmark runs (64, the mission-planner example).
const MaxSatellites = 1 << 16

// MaxArrivals caps a run's frame arrivals, Satellites × DurationSec /
// FramePeriodSec: Simulate reads no context, so a long duration would hold
// a run, and a daemon admission slot, for hours. It is 10× the largest
// count any experiment, test, pin, example or benchmark makes (3,225,600:
// 8 satellites for a week). A run at the cap on the daemon's defaults
// takes 2.5 s at 4.3 MiB peak RSS (2-vCPU Intel Xeon, Go 1.24.0).
const MaxArrivals = 1 << 25

// Validate checks the config, including the MaxSatellites and
// MaxArrivals bounds.
func (c Config) Validate() error {
	if c.Satellites <= 0 || c.Satellites > MaxSatellites {
		return fmt.Errorf("sched: satellite count %d outside [1, %d]", c.Satellites, MaxSatellites)
	}
	if c.PixelsPerFrame <= 0 || !(c.FramePeriodSec > 0 && c.DurationSec > 0) ||
		math.IsInf(c.FramePeriodSec, 1) || math.IsInf(c.DurationSec, 1) {
		return fmt.Errorf("sched: period/pixels/duration not positive, or period/duration not finite")
	}
	if arrivals := float64(c.Satellites) * c.DurationSec / c.FramePeriodSec; arrivals > MaxArrivals {
		return fmt.Errorf("sched: %d satellites for %v s at a %v s frame period is %.3g arrivals, over the %d-arrival ceiling",
			c.Satellites, c.DurationSec, c.FramePeriodSec, arrivals, MaxArrivals)
	}
	if c.TargetBatch <= 0 {
		return fmt.Errorf("sched: non-positive target batch %d", c.TargetBatch)
	}
	if c.MaxBatch != 0 && c.MaxBatch < c.TargetBatch {
		return fmt.Errorf("sched: max batch %d below target %d", c.MaxBatch, c.TargetBatch)
	}
	if c.MaxWaitSec < 0 {
		return fmt.Errorf("sched: negative max wait")
	}
	if c.Faults != nil {
		if err := c.Faults.validate(); err != nil {
			return err
		}
	}
	return nil
}

// Stats summarizes one run.
type Stats struct {
	Arrived   int
	Processed int
	Dropped   int
	LeftOver  int // still queued at the end (frames in service were counted at launch)

	MeanLatencySec float64 // arrival → batch completion, processed frames
	P95LatencySec  float64
	MaxLatencySec  float64

	BusySec     float64 // device busy time
	Utilization float64 // BusySec / duration
	EnergyJ     float64
	MeanBatch   float64 // average formed batch size
	Batches     int

	// Fault-injection accounting (all zero on fault-free runs).
	Corrupted    int     // frames whose results upsets corrupted beyond recovery
	Upsets       int     // SEUs sampled during busy compute
	DeviceResets int     // upsets that hard-reset the device
	DowntimeSec  float64 // reboot time after device resets
	ThrottleSec  float64 // extra service time from thermal derating
}

// EnergyPerFrameJ returns average energy per processed frame.
func (s Stats) EnergyPerFrameJ() float64 {
	if s.Processed == 0 {
		return 0
	}
	return s.EnergyJ / float64(s.Processed)
}

// minThrottleFactor floors thermal derating so a degenerate hook cannot
// stall the simulation with near-infinite service times.
const minThrottleFactor = 0.01

// calendar orders the satellites' next frame arrivals as a ring sorted by
// time, FIFO among equal times. Every satellite shares one frame period at
// a staggered phase, so the arrivals come round-robin in satellite order:
// the next one is the head's, and the satellite that arrived re-enters at
// the tail with its next time.
//
// A next time is the running sum now + period, so a satellite's k-th time
// carries at most k²·P·2^-53 of accumulated rounding, and two neighbours
// on the ring, P/N apart, can swap only once k²·N ≥ 2^52. Validate's
// MaxArrivals bounds k·N by 2^25, so with N ≥ 2, k²·N ≤ 2^49: for any run
// Config admits, advance's comparison with the entry ahead never fails.
// An entry that does arrive out of order walks back past the later ones,
// so the ring stays exact for any times.
type calendar struct {
	slots []arrivalSlot
	head  int
}

type arrivalSlot struct {
	at  float64 // next arrival time
	sat int
}

// newCalendar staggers n satellites' phases uniformly across the period,
// as a formation flying over adjacent ground frames would be.
func newCalendar(n int, period float64) calendar {
	c := calendar{slots: make([]arrivalSlot, n)}
	for s := range c.slots {
		c.slots[s] = arrivalSlot{at: period * float64(s) / float64(n), sat: s}
	}
	return c
}

// advance re-enters the head's satellite at time t, behind every entry no
// later than t.
func (c *calendar) advance(t float64) {
	q := c.slots
	i := c.head
	c.head++
	if c.head == len(q) {
		c.head = 0
	}
	q[i].at = t
	for i != c.head {
		j := i - 1
		if j < 0 {
			j = len(q) - 1
		}
		if q[j].at <= t {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
}

// Simulate runs the discrete-event simulation and returns its statistics.
// Events run in time order: the next frame arrival from the calendar, or
// the pending batch's completion when it is earlier. An arrival and a
// completion at the same instant run arrival first, and simultaneous
// arrivals in calendar order.
func Simulate(cfg Config, proc Processor) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	if proc == nil {
		return Stats{}, fmt.Errorf("sched: nil processor")
	}
	maxBatch := cfg.MaxBatch
	if maxBatch == 0 {
		maxBatch = cfg.TargetBatch
	}
	queueLimit := cfg.QueueLimit
	if queueLimit == 0 {
		queueLimit = 4 * cfg.Satellites
	}
	rng := newStream(cfg.Seed)

	// Handles resolve once; with Obs == nil each instrumented site below
	// is a single nil-check.
	reg := cfg.Obs
	runSpan := reg.StartSpan("sched.simulate")
	var (
		hBatchSize  = reg.Histogram("sched.batch_frames", obs.CountBuckets)
		hServiceSec = reg.Histogram("sched.batch_service_secs", obs.TimeBuckets)
		hWaitSec    = reg.Histogram("sched.batch_queue_wait_secs", obs.TimeBuckets)
	)
	dev := Device{
		Proc:           proc,
		PixelsPerFrame: cfg.PixelsPerFrame,
		Thermal:        cfg.Thermal,
		Faults:         cfg.Faults,
		Rng:            rng,
	}

	// Latency accumulator: a fixed-bucket histogram instead of a
	// per-frame slice keeps month-scale missions memory-flat (O(buckets),
	// not O(frames)). Mean and max stay exact from the histogram's running
	// sum/max; P95 is interpolated from the buckets, within one bucket
	// width (~15%) of the old sorted-sample value. The accumulator is
	// run-local — using the registry's copy directly would let a registry
	// shared across sequential runs leak one run's samples into the next
	// run's Stats — and merges into "sched.frame_latency_secs" once at the
	// end, so -metrics runs still expose the full latency distribution.
	lat := obs.NewHistogram(obs.LatencyBuckets)

	cal := newCalendar(cfg.Satellites, cfg.FramePeriodSec)

	var (
		stats    Stats
		queue    []float64 // arrival times of queued frames (FIFO)
		lats     []float64 // a batch's frame latencies, recorded under one lock
		busy     bool
		doneAt   float64 // the launched batch's completion, while busy
		batchSum int
	)

	// startBatch launches processing of up to maxBatch queued frames.
	startBatch := func(now float64) {
		n := min(len(queue), maxBatch)
		if n == 0 {
			return
		}
		secs, good := dev.Launch(now, n)
		done := now + secs
		if good {
			// The queue, not MaxBatch (which a spec may set far above any
			// batch a run forms), sizes the latency buffer.
			if cap(lats) < n {
				lats = make([]float64, 0, min(maxBatch, cap(queue)))
			}
			lats = lats[:0]
			for _, arr := range queue[:n] {
				lats = append(lats, done-arr)
			}
			lat.ObserveAll(lats)
			if latencyTap != nil {
				for _, l := range lats {
					latencyTap(l)
				}
			}
			stats.Processed += n
		} else {
			stats.Corrupted += n
		}
		if reg != nil {
			reg.SetTime(now)
			hBatchSize.Observe(float64(n))
			hServiceSec.Observe(secs)
			// Per-batch mean queue wait: one observation per launch keeps
			// the instrumented hot loop inside the <3% overhead budget.
			var wait float64
			for _, arr := range queue[:n] {
				wait += now - arr
			}
			hWaitSec.Observe(wait / float64(n))
			reg.Emit("sched.batch", "span", secs)
		}
		// Compact in place rather than re-slicing forward: advancing the
		// base pointer burned one small backing-array allocation per few
		// batches; reusing the array keeps the run's allocations flat.
		rest := copy(queue, queue[n:])
		queue = queue[:rest]
		batchSum += n
		busy = true
		doneAt = done
	}

	// shouldLaunch applies the batching policy (and the compute pause).
	shouldLaunch := func(now float64) bool {
		if len(queue) == 0 {
			return false
		}
		if cfg.Faults != nil && cfg.Faults.PauseActive != nil && cfg.Faults.PauseActive(now) {
			return false
		}
		if len(queue) >= cfg.TargetBatch {
			return true
		}
		return cfg.MaxWaitSec > 0 && now-queue[0] >= cfg.MaxWaitSec
	}

	for {
		next := cal.slots[cal.head]
		now := next.at
		arrival := !busy || now <= doneAt
		if !arrival {
			now = doneAt
		}
		if now > cfg.DurationSec {
			break
		}
		if arrival {
			cal.advance(now + cfg.FramePeriodSec)
			switch {
			case cfg.KeepProb != nil && discarded(rng, cfg.KeepProb(next.sat, now)):
				// Early-discarded on the EO satellite.
			case len(queue) >= queueLimit:
				stats.Arrived++
				stats.Dropped++
			default:
				stats.Arrived++
				queue = append(queue, now)
			}
		} else {
			busy = false
		}
		if !busy && shouldLaunch(now) {
			startBatch(now)
		}
	}

	stats.LeftOver = len(queue)
	stats.EnergyJ, stats.BusySec, stats.Batches = dev.EnergyJ, dev.BusySec, dev.Batches
	stats.Upsets, stats.DeviceResets, stats.DowntimeSec = dev.Upsets, dev.Resets, dev.DowntimeSec
	stats.ThrottleSec = dev.ThrottleSec
	stats.Utilization = stats.BusySec / cfg.DurationSec
	if stats.Utilization > 1 {
		stats.Utilization = 1
	}
	if stats.Batches > 0 {
		stats.MeanBatch = float64(batchSum) / float64(stats.Batches)
	}
	if lat.Count() > 0 {
		stats.MeanLatencySec = lat.Mean()
		stats.P95LatencySec = lat.Quantile(0.95)
		stats.MaxLatencySec = lat.Max()
	}
	if reg != nil {
		// Counters flush once from the already-kept Stats fields rather
		// than paying an atomic op inside the event loop: snapshots taken
		// after the run are identical, and the hot path stays within the
		// <3% instrumented-overhead budget.
		reg.SetTime(cfg.DurationSec)
		reg.Histogram("sched.frame_latency_secs", obs.LatencyBuckets).Merge(lat)
		reg.Counter("sched.arrived").Add(stats.Arrived)
		reg.Counter("sched.dropped").Add(stats.Dropped)
		reg.Counter("sched.batches").Add(stats.Batches)
		reg.Counter("sched.upsets").Add(stats.Upsets)
		reg.Counter("sched.device_resets").Add(stats.DeviceResets)
		reg.Counter("sched.corrupted_frames").Add(stats.Corrupted)
		reg.Counter("sched.processed_frames").Add(stats.Processed)
		reg.Counter("sched.throttled_batches").Add(dev.Throttled)
		reg.Gauge("sched.utilization").Set(stats.Utilization)
		reg.Gauge("sched.mean_batch").Set(stats.MeanBatch)
		reg.Gauge("sched.energy_j").Set(stats.EnergyJ)
	}
	runSpan.End()
	return stats, nil
}

// latencyTap, when set by a test, receives every processed frame's exact
// latency. It exists so accuracy tests can compare the bucket-derived
// P95LatencySec against the exact sorted-sample percentile the retired
// per-frame slice used to yield; production code never sets it.
var latencyTap func(latencySec float64)
