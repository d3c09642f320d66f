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
	"math/rand"

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
	// early discard at simulation time t. Nil keeps everything. This is
	// where per-satellite variation (ocean vs land, day vs night) enters.
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
	// sampling share one rand.Rand seeded here, so a (Config, Processor)
	// pair is fully deterministic.
	Seed int64
	// Faults enables radiation-driven fault injection (nil = fault-free;
	// a nil Faults run is bit-for-bit identical to the pre-fault model).
	Faults *FaultConfig
	// Thermal lets a thermal model derate the device (nil = never).
	Thermal ThermalHook
	// Obs, when non-nil, receives per-batch spans, queue-wait and
	// service-time histograms, and upset/recovery counters (see
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
// and the simulation's single injected random source.
type BatchExec struct {
	Start         float64 // launch time
	BaseSecs      float64 // fault-free service time of one full pass
	BaseJoules    float64
	Hazard        func(t float64) float64
	ResetFraction float64
	ResetMTTRSec  float64
	Rng           *rand.Rand
	// Obs is the simulation's observability registry (nil when disabled),
	// letting recovery policies count their retry/checkpoint/vote outcomes
	// without threading extra state. Policies must only record through it,
	// never read from it.
	Obs *obs.Registry
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
// reproduce fault-free runs bit for bit. A silent upset lets the pass run
// to completion (the device does not know); a reset truncates it at the
// upset and adds ResetMTTRSec of downtime.
func (e BatchExec) RunPass(start, secs, joules float64) PassResult {
	rate := e.HazardAt(start)
	if rate <= 0 || secs <= 0 {
		return PassResult{Secs: secs, Joules: joules}
	}
	u := e.Rng.ExpFloat64() / rate
	if u >= secs {
		return PassResult{Secs: secs, Joules: joules}
	}
	if e.Rng.Float64() < e.ResetFraction {
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

// event kinds for the simulation heap.
const (
	evArrival = iota
	evServiceDone
)

type event struct {
	time float64
	kind int
	sat  int // arrival source
}

// eventHeap is a typed binary min-heap on event.time. It specializes
// container/heap's sift algorithms verbatim so the pop order — including
// ties — is identical to the interface-based implementation it replaced,
// while avoiding the per-push interface boxing that made the event loop
// allocate O(frames) over a run.
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *eventHeap) pop() event {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	h.down(0, n)
	e := old[n]
	*h = old[:n]
	return e
}

func (h eventHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || h[i].time <= h[j].time {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h eventHeap) down(i0, n int) {
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].time < h[j1].time {
			j = j2 // = 2*i + 2  // right child
		}
		if h[i].time <= h[j].time {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// Simulate runs the discrete-event simulation and returns its statistics.
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
	rng := rand.New(rand.NewSource(cfg.Seed))

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
		Obs:            reg,
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

	var h eventHeap
	// Stagger satellite frame phases uniformly across the period, as a
	// formation flying over adjacent ground frames would be.
	for s := 0; s < cfg.Satellites; s++ {
		phase := cfg.FramePeriodSec * float64(s) / float64(cfg.Satellites)
		h.push(event{time: phase, kind: evArrival, sat: s})
	}

	var (
		stats    Stats
		queue    []float64 // arrival times of queued frames (FIFO)
		busy     bool
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
			for _, arr := range queue[:n] {
				l := done - arr
				lat.Observe(l)
				if latencyTap != nil {
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
		h.push(event{time: done, kind: evServiceDone})
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

	for len(h) > 0 {
		ev := h.pop()
		if ev.time > cfg.DurationSec {
			break
		}
		now := ev.time
		switch ev.kind {
		case evArrival:
			// Schedule this satellite's next frame.
			h.push(event{time: now + cfg.FramePeriodSec, kind: evArrival, sat: ev.sat})
			keep := 1.0
			if cfg.KeepProb != nil {
				keep = cfg.KeepProb(ev.sat, now)
			}
			if rng.Float64() >= keep {
				break // early-discarded on the EO satellite
			}
			stats.Arrived++
			if len(queue) >= queueLimit {
				stats.Dropped++
				break
			}
			queue = append(queue, now)
		case evServiceDone:
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
