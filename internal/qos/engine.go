package qos

import (
	"fmt"
	"math"
	"math/rand"

	"spacedc/internal/obs"
	"spacedc/internal/resilience"
	"spacedc/internal/sched"
	"spacedc/internal/workload"
)

// NetworkConfig is the constellation's delivery path as the QoS engine
// sees it: a fluid FIFO with the deliverable capacity and uncongested base
// latency measured from netsim runs (see CalibrateNetwork), so admitted
// requests experience the same saturation point the flow-level simulator
// produces without paying a per-request co-simulation.
type NetworkConfig struct {
	// CapacityBps is the deliverable throughput at saturation.
	CapacityBps float64
	// BaseLatencySec is the uncongested delivery latency added to every
	// completed request (propagation + store-and-forward floor).
	BaseLatencySec float64
}

// The engine's fixed limits: its time step, the transfer backlog (in
// seconds of network capacity) and the compute queue (in target batches)
// past which arrivals are shed, the pending retries past which a retry is
// a permanent shed, and how far degradation may throttle admission.
const (
	stepSec           = 0.1
	netQueueSec       = 5
	compQueueBatches  = 64
	retryQueueLimit   = 4096
	minAdmissionScale = 0.05
)

// ComputeConfig is the SµDC compute stage: delivered requests queue per
// class and launch as batches of at most TargetBatch frames through
// sched's batch executor, so thermal throttling and SEU upsets behave
// exactly as in the pipeline simulator. An upset batch is corrupt; the
// request retry policy is what recovers it.
type ComputeConfig struct {
	// Proc is the device model (sched.NewDeviceProcessor or a synthetic).
	Proc sched.Processor
	// PixelsPerFrame sizes one frame's inference input. Zero means 1e6.
	PixelsPerFrame float64
	// TargetBatch is the batch size in frames: the queue depth that
	// launches a batch, and its cap unless its first request is larger.
	TargetBatch int
	// MaxWaitSec bounds how long the oldest delivered request waits before
	// a partial batch launches. Zero means 5 s.
	MaxWaitSec float64
}

// withDefaults fills zero fields.
func (c ComputeConfig) withDefaults() ComputeConfig {
	if c.PixelsPerFrame == 0 {
		c.PixelsPerFrame = 1e6
	}
	if c.MaxWaitSec == 0 {
		c.MaxWaitSec = 5
	}
	return c
}

// FaultKind names one campaign fault mechanism.
type FaultKind int

// Campaign fault kinds.
const (
	// GroundOutage scales the network capacity by Factor for the window
	// (ground-station or downlink loss forcing traffic onto fewer paths).
	GroundOutage FaultKind = iota
	// SEUBurst raises the compute upset hazard to HazardPerSec for the
	// window (SAA pass or solar particle event).
	SEUBurst
	// RadiatorDerate scales the governor's heat-rejection capacity by
	// Factor for the window (radiator damage or attitude constraint).
	RadiatorDerate
)

// String names the kind.
func (k FaultKind) String() string {
	switch k {
	case GroundOutage:
		return "ground-outage"
	case SEUBurst:
		return "seu-burst"
	case RadiatorDerate:
		return "radiator-derate"
	}
	return fmt.Sprintf("fault-kind-%d", int(k))
}

// Fault is one campaign window.
type Fault struct {
	Kind     FaultKind
	StartSec float64
	EndSec   float64
	// Factor is the capacity multiplier during the window (GroundOutage,
	// RadiatorDerate).
	Factor float64
	// HazardPerSec is the SEU rate during the window (SEUBurst).
	HazardPerSec float64
}

// validate checks one fault window.
func (f Fault) validate() error {
	if f.EndSec <= f.StartSec || f.StartSec < 0 {
		return fmt.Errorf("qos: fault window [%v, %v) is empty or negative", f.StartSec, f.EndSec)
	}
	switch f.Kind {
	case GroundOutage, RadiatorDerate:
		if f.Factor <= 0 || f.Factor > 1 || math.IsNaN(f.Factor) {
			return fmt.Errorf("qos: %s factor %v outside (0, 1]", f.Kind, f.Factor)
		}
	case SEUBurst:
		if f.HazardPerSec <= 0 || math.IsNaN(f.HazardPerSec) || math.IsInf(f.HazardPerSec, 0) {
			return fmt.Errorf("qos: seu-burst hazard %v must be positive", f.HazardPerSec)
		}
	default:
		return fmt.Errorf("qos: unknown fault kind %d", int(f.Kind))
	}
	return nil
}

// Policy bundles the QoS mechanisms one scenario runs with.
type Policy struct {
	// Name labels the policy in reports.
	Name string
	// Admission is the per-class token-bucket set; empty admits all.
	Admission []ClassPolicy
	// DeadlineShed drops requests whose predicted completion already
	// misses their deadline instead of letting them rot in queues.
	DeadlineShed bool
	// Retry re-submits shed and failed requests with backoff.
	Retry RetryPolicy
	// ClassBlind disables the engine's strict-priority queue discipline:
	// both stages serve in arrival order across classes and overflow drops
	// the arriving request instead of evicting lower-priority work. The
	// "open" baseline sets it so that any priority protection comes from
	// policy mechanisms, not engine structure.
	ClassBlind bool
}

// Scenario is one end-to-end QoS run.
type Scenario struct {
	Name     string
	Workload workload.Spec
	Network  NetworkConfig
	Compute  ComputeConfig
	Policy   Policy
	// Governor, when set, throttles the compute stage thermally, and the
	// regime its latest transitions reported scales admission (see
	// admissionScale). The engine calls Reset and instruments it on Obs,
	// so a fresh governor per run is not required but shared governors
	// must not run concurrently.
	Governor *resilience.Governor
	// Campaign is the fault schedule.
	Campaign []Fault
	// Seed drives retry jitter and fault sampling.
	Seed int64
	// Obs, when non-nil, receives the run's metrics, per-step samples and
	// the governor's instrumentation. Nothing the engine decides reads it,
	// so instrumented runs are bit-identical to bare ones.
	Obs *obs.Registry
}

// MaxSteps caps a run's time steps, Workload.DurationSec / 0.1: Run reads
// no context, so a long duration would hold a run, and a daemon admission
// slot, for hours. It is 218× the largest count any experiment, test, pin,
// example or benchmark runs (4,800). An ext-workload scenario at load 0.5
// runs 2^20 steps in 1.0 s (2-vCPU Intel Xeon, Go 1.24.0).
const MaxSteps = 1 << 20

// ClassResult is one priority class's outcome.
type ClassResult struct {
	Name    string
	Offered int // first-attempt arrivals
	// Admitted counts attempts that passed admission and entered the
	// network stage (retries included).
	Admitted  int
	Completed int // delivered and processed uncorrupted
	// Shed* count permanently abandoned requests by the stage that gave up
	// on them.
	ShedAdmission int // token buckets dry (and retries exhausted)
	ShedDeadline  int // predicted completion past deadline
	ShedOverflow  int // network/compute/retry queue caps
	Failed        int // upset-corrupted with no attempts left
	InFlight      int // still queued when the run ended

	DeadlineMet    int // completions inside the class SLO
	MeanLatencySec float64
	P95LatencySec  float64
	P99LatencySec  float64
	MaxLatencySec  float64

	// SLOAttainment is DeadlineMet / Offered — the end-to-end probability
	// a request got service inside its SLO.
	SLOAttainment float64
	// ShedFraction is (all sheds + failures) / Offered.
	ShedFraction float64
	// GoodputPerSec is DeadlineMet / duration.
	GoodputPerSec float64
}

// Result is one scenario's outcome.
type Result struct {
	Name    string
	Policy  string
	Classes []ClassResult

	Offered   int
	Admitted  int
	Completed int
	Shed      int
	Failed    int
	Retries   int // retry attempts scheduled

	Batches     int
	Upsets      int
	Resets      int
	EnergyJ     float64
	BusySec     float64
	ThrottleSec float64

	// PeakBacklogSec is the worst momentary drain-time estimate (network
	// backlog at capacity + compute backlog at service rate).
	PeakBacklogSec float64
	// RecoverySec measures graceful degradation: the time from the last
	// campaign fault clearing until the backlog estimate returns to its
	// pre-campaign baseline and holds there. Negative when the run ended
	// before recovering (or no campaign ran).
	RecoverySec float64
}

// item is one request in flight through the pipeline. Queues of items are
// bounded by the stage caps, so engine memory is flat in total request
// count.
type item struct {
	arrival float64 // first-attempt arrival (deadlines and latency measure from here)
	ready   float64 // network delivery time once the transfer completes
	bits    float64 // network payload remaining
	class   int32
	attempt int32 // failed attempts so far
}

// retryHeap is a typed min-heap on due time (the sched eventHeap pattern:
// no interface boxing, no allocation per push beyond slice growth).
type retryEntry struct {
	due float64
	it  item
}

type retryHeap []retryEntry

func (h *retryHeap) push(e retryEntry) {
	*h = append(*h, e)
	j := len(*h) - 1
	for {
		i := (j - 1) / 2
		if i == j || (*h)[i].due <= (*h)[j].due {
			break
		}
		(*h)[i], (*h)[j] = (*h)[j], (*h)[i]
		j = i
	}
}

func (h *retryHeap) pop() retryEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && old[j2].due < old[j1].due {
			j = j2
		}
		if old[i].due <= old[j].due {
			break
		}
		old[i], old[j] = old[j], old[i]
		i = j
	}
	e := old[n]
	*h = old[:n]
	return e
}

// shed reasons for the class tallies.
const (
	shedAdmission = iota
	shedDeadline
	shedOverflow
	shedFailed
)

// engine is the per-run state.
type engine struct {
	sc      Scenario
	classes []workload.Class
	adm     *Admission
	dev     sched.Device // its Rng also draws retry jitter
	retry   RetryPolicy
	scale   float64 // admission-rate multiplier (see admissionScale)

	// Both stages queue per class in strict priority order: class 0 is
	// served first and, on overflow, the lowest-priority tail is evicted
	// before a higher-priority arrival is turned away.
	netQ         [][]item
	netBits      []float64 // queued bits per class
	netQBits     float64   // total queued bits
	compQ        [][]item
	compFramesBy []int
	compFrames   int
	retries      retryHeap
	busyUntil    float64
	taken        []int // batch-formation scratch, reused across launches
	pops         []int // network-service scratch: heads granted per class

	hazard      float64 // current campaign SEU rate
	svcPerFrame float64 // EWMA of batch seconds per frame (backlog estimate)

	lat      []*obs.Histogram // per-class latency accumulators
	perClass []ClassResult
	res      Result
}

// Run executes one scenario.
func Run(sc Scenario) (Result, error) {
	sc.Compute = sc.Compute.withDefaults()
	sc.Policy.Retry = sc.Policy.Retry.withDefaults()
	if err := validate(sc); err != nil {
		return Result{}, err
	}
	gen, err := workload.New(sc.Workload)
	if err != nil {
		return Result{}, err
	}
	adm, err := NewAdmission(sc.Policy.Admission)
	if err != nil {
		return Result{}, err
	}

	e := &engine{
		sc:      sc,
		classes: gen.Classes(),
		adm:     adm,
		dev: sched.Device{
			Proc:           sc.Compute.Proc,
			PixelsPerFrame: sc.Compute.PixelsPerFrame,
			Rng:            rand.New(rand.NewSource(sc.Seed)),
		},
		retry:        sc.Policy.Retry,
		scale:        1,
		netQ:         make([][]item, len(gen.Classes())),
		netBits:      make([]float64, len(gen.Classes())),
		compQ:        make([][]item, len(gen.Classes())),
		compFramesBy: make([]int, len(gen.Classes())),
		taken:        make([]int, len(gen.Classes())),
		pops:         make([]int, len(gen.Classes())),
		svcPerFrame:  probeServiceSec(sc.Compute),
	}
	e.lat = make([]*obs.Histogram, len(e.classes))
	e.perClass = make([]ClassResult, len(e.classes))
	for i, c := range e.classes {
		e.lat[i] = obs.NewHistogram(obs.LatencyBuckets)
		e.perClass[i].Name = c.Name
	}

	// An upset batch is corrupt: no recovery policy runs, so the campaign
	// hazard is the executor's only fault input.
	e.dev.Faults = &sched.FaultConfig{Hazard: func(float64) float64 { return e.hazard }}
	if gov := sc.Governor; gov != nil {
		gov.Reset()
		gov.Instrument(sc.Obs)
		e.dev.Thermal = gov
	}

	e.run(gen)
	e.finish(sc.Workload.DurationSec)
	return e.res, nil
}

// validate checks the composed scenario.
func validate(sc Scenario) error {
	if sc.Network.CapacityBps <= 0 || math.IsNaN(sc.Network.CapacityBps) || math.IsInf(sc.Network.CapacityBps, 0) {
		return fmt.Errorf("qos: non-positive network capacity %v", sc.Network.CapacityBps)
	}
	if sc.Network.BaseLatencySec < 0 || math.IsNaN(sc.Network.BaseLatencySec) {
		return fmt.Errorf("qos: negative base latency %v", sc.Network.BaseLatencySec)
	}
	if sc.Compute.Proc == nil {
		return fmt.Errorf("qos: nil compute processor")
	}
	if sc.Compute.TargetBatch <= 0 {
		return fmt.Errorf("qos: non-positive target batch %d", sc.Compute.TargetBatch)
	}
	if steps := sc.Workload.DurationSec / stepSec; !(steps <= MaxSteps) {
		return fmt.Errorf("qos: %v s at a %v s step is %.3g steps, over the %d-step ceiling",
			sc.Workload.DurationSec, stepSec, steps, MaxSteps)
	}
	if err := sc.Policy.Retry.validate(); err != nil {
		return err
	}
	for _, f := range sc.Campaign {
		if err := f.validate(); err != nil {
			return err
		}
	}
	return nil
}

// probeServiceSec seeds the backlog estimator with the device's nominal
// per-frame service time.
func probeServiceSec(c ComputeConfig) float64 {
	secs, _ := c.Proc.Process(c.TargetBatch, float64(c.TargetBatch)*c.PixelsPerFrame)
	if secs <= 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
		return 0
	}
	return secs / float64(c.TargetBatch)
}

// run is the time-stepped main loop.
func (e *engine) run(gen *workload.Generator) {
	sc := e.sc
	ext := sc.Obs
	dt := stepSec
	dur := sc.Workload.DurationSec
	gov := sc.Governor

	// Campaign bookkeeping: radiator derates mutate the governor's
	// capacity at window edges; saved restores it.
	saved := make([]float64, len(sc.Campaign))
	applied := make([]bool, len(sc.Campaign))
	campStart, campEnd := math.Inf(1), math.Inf(-1)
	for _, f := range sc.Campaign {
		campStart = math.Min(campStart, f.StartSec)
		campEnd = math.Max(campEnd, f.EndSec)
	}

	// Recovery tracking: the backlog baseline is sampled just before the
	// campaign opens; after it clears, recovery is the first time the
	// backlog returns to (and holds at) that baseline.
	const recoverHoldSec = 2.0
	baseline, holdStart := 0.0, math.NaN()
	e.res.RecoverySec = -1

	extBacklog := ext.Gauge("qos.backlog_sec")
	extScale := ext.Gauge("qos.admission_scale")

	pending, ok := gen.Next()
	for t := 0.0; t < dur; t += dt {
		stepEnd := t + dt

		// Campaign windows.
		netFactor := 1.0
		e.hazard = 0
		for i, f := range sc.Campaign {
			active := t >= f.StartSec && t < f.EndSec
			switch f.Kind {
			case GroundOutage:
				if active {
					netFactor *= f.Factor
				}
			case SEUBurst:
				if active {
					e.hazard += f.HazardPerSec
				}
			case RadiatorDerate:
				if gov == nil {
					continue
				}
				if active && !applied[i] {
					saved[i] = gov.CapacityW
					gov.CapacityW *= f.Factor
					applied[i] = true
				} else if !active && applied[i] {
					gov.CapacityW = saved[i]
					applied[i] = false
				}
			}
		}

		// Governor shed check (a shed transition reaches admission below).
		if gov != nil {
			gov.KeepFactor(t)
		}

		// Due retries re-enter admission before this step's fresh
		// arrivals (they have been waiting longer).
		for len(e.retries) > 0 && e.retries[0].due < stepEnd {
			re := e.retries.pop()
			now := re.due
			if now < t {
				now = t
			}
			e.arrive(now, re.it)
		}

		// Fresh arrivals.
		for ok && pending.TSec < stepEnd {
			cls := pending.Class
			e.perClass[cls].Offered++
			e.arrive(pending.TSec, item{
				arrival: pending.TSec,
				bits:    e.classes[cls].Bits,
				class:   int32(cls),
			})
			pending, ok = gen.Next()
		}

		// Network stage: fluid FIFO at the effective capacity.
		e.serveNetwork(stepEnd, sc.Network.CapacityBps*netFactor*dt)

		// Compute stage: launch batches while the device frees up inside
		// this step.
		e.serveCompute(t, stepEnd)

		// The regime the governor reported this step throttles admission
		// from the next step on.
		if gov != nil {
			e.scale = admissionScale(gov)
		}

		// Backlog estimate and recovery tracking.
		backlog := e.backlogSec(netFactor)
		if backlog > e.res.PeakBacklogSec {
			e.res.PeakBacklogSec = backlog
		}
		if len(sc.Campaign) > 0 {
			if stepEnd <= campStart {
				baseline = backlog
			} else if t >= campEnd && e.res.RecoverySec < 0 {
				if backlog <= baseline+0.1*(baseline+1) {
					if math.IsNaN(holdStart) {
						holdStart = t
					}
					if stepEnd-holdStart >= recoverHoldSec {
						e.res.RecoverySec = holdStart - campEnd
					}
				} else {
					holdStart = math.NaN()
				}
			}
		}
		if ext != nil {
			ext.SetTime(stepEnd)
			extBacklog.Set(backlog)
			extScale.Set(e.scale)
			ext.Emit("qos.backlog_sec", "sample", backlog)
		}
	}

	// Restore any still-applied radiator derates (campaigns ending at the
	// run boundary).
	for i := range applied {
		if applied[i] && gov != nil {
			gov.CapacityW = saved[i]
		}
	}
}

// arrive runs one attempt through deadline shedding and admission into the
// network queue.
func (e *engine) arrive(now float64, it item) {
	cls := int(it.class)
	cl := e.classes[cls]

	if e.sc.Policy.DeadlineShed {
		est := now - it.arrival + e.predictedLatencySec(cls, it.bits)
		if est > cl.DeadlineSec {
			// A later retry only sees less deadline budget; deadline
			// sheds are final.
			e.shed(cls, shedDeadline)
			return
		}
	}
	if !e.adm.Admit(now, cls, e.scale) {
		e.reject(now, it, shedAdmission)
		return
	}
	// On overflow, evict lower-priority tail items before turning a
	// higher-priority arrival away (drop-tail when class-blind).
	for e.netQBits+it.bits > netQueueSec*e.sc.Network.CapacityBps {
		if e.sc.Policy.ClassBlind || !e.evictBelow(now, cls) {
			e.reject(now, it, shedOverflow)
			return
		}
	}
	e.perClass[cls].Admitted++
	e.res.Admitted++
	e.netQBits += it.bits
	e.netBits[cls] += it.bits
	e.netQ[cls] = append(e.netQ[cls], it)
}

// evictBelow drops the newest queued transfer of the lowest-priority class
// strictly below cls, reporting whether anything could be evicted. The
// evicted request takes the retry path like any other shed.
func (e *engine) evictBelow(now float64, cls int) bool {
	for j := len(e.netQ) - 1; j > cls; j-- {
		q := e.netQ[j]
		if len(q) == 0 {
			continue
		}
		victim := q[len(q)-1]
		e.netQ[j] = q[:len(q)-1]
		e.netQBits -= victim.bits
		e.netBits[j] -= victim.bits
		e.reject(now, victim, shedOverflow)
		return true
	}
	return false
}

// reject routes a failed attempt to the retry queue, or sheds it when
// retries are disabled, exhausted, or backed up. A retried request
// re-transfers its full payload.
func (e *engine) reject(now float64, it item, reason int) {
	cls := int(it.class)
	if e.retry.enabled() && int(it.attempt)+1 < e.retry.MaxAttempts && len(e.retries) < retryQueueLimit {
		it.attempt++
		it.bits = e.classes[cls].Bits
		e.retries.push(retryEntry{due: now + e.retry.backoff(int(it.attempt), e.dev.Rng), it: it})
		e.res.Retries++
		return
	}
	e.shed(cls, reason)
}

// shed records one permanently abandoned request.
func (e *engine) shed(cls, reason int) {
	switch reason {
	case shedAdmission:
		e.perClass[cls].ShedAdmission++
		e.res.Shed++
	case shedDeadline:
		e.perClass[cls].ShedDeadline++
		e.res.Shed++
	case shedOverflow:
		e.perClass[cls].ShedOverflow++
		e.res.Shed++
	case shedFailed:
		e.perClass[cls].Failed++
		e.res.Failed++
	}
}

// predictedLatencySec estimates a new arrival's completion latency under
// strict priority: only same-or-higher-priority backlog is ahead of it —
// the network bits to drain at nominal capacity, then the compute frames
// at the observed service rate.
func (e *engine) predictedLatencySec(cls int, bits float64) float64 {
	if e.sc.Policy.ClassBlind {
		cls = len(e.netBits) - 1 // everything queued is ahead of a blind arrival
	}
	aheadBits := bits
	aheadFrames := 0
	for j := 0; j <= cls; j++ {
		aheadBits += e.netBits[j]
		aheadFrames += e.compFramesBy[j]
	}
	return aheadBits/e.sc.Network.CapacityBps +
		e.sc.Network.BaseLatencySec +
		float64(aheadFrames)*e.svcPerFrame
}

// backlogSec is the drain-time estimate the recovery metric tracks.
func (e *engine) backlogSec(netFactor float64) float64 {
	c := e.sc.Network.CapacityBps * netFactor
	if c < 1 {
		c = 1
	}
	return e.netQBits/c + float64(e.compFrames)*e.svcPerFrame
}

// serveNetwork drains the transfer queues with this step's bit budget and
// moves completed transfers into the per-class compute queues. Each grant
// goes to the head of the highest-priority non-empty class; class-blind
// policies grant the longest-waiting head instead, ties to the higher
// priority, the way a shared FIFO would serve with no notion of priority.
// The queues are compacted and the bit tallies clamped once, after the
// loop: deliver never reads them.
func (e *engine) serveNetwork(stepEnd, budget float64) {
	pops := e.pops
	for i := range pops {
		pops[i] = 0
	}
	for budget > 0 {
		best, bestArr := -1, math.Inf(1)
		for cls := range e.netQ {
			q := e.netQ[cls]
			if pops[cls] == len(q) {
				continue
			}
			if !e.sc.Policy.ClassBlind {
				best = cls
				break
			}
			if q[pops[cls]].arrival < bestArr {
				best, bestArr = cls, q[pops[cls]].arrival
			}
		}
		if best < 0 {
			break
		}
		it := &e.netQ[best][pops[best]]
		if it.bits > budget {
			it.bits -= budget
			e.netQBits -= budget
			e.netBits[best] -= budget
			break
		}
		budget -= it.bits
		e.netQBits -= it.bits
		e.netBits[best] -= it.bits
		it.bits = 0
		it.ready = stepEnd
		e.deliver(stepEnd, *it)
		pops[best]++
	}
	for cls := range e.netQ {
		if p := pops[cls]; p > 0 {
			n := copy(e.netQ[cls], e.netQ[cls][p:])
			e.netQ[cls] = e.netQ[cls][:n]
		}
		if e.netBits[cls] < 0 {
			e.netBits[cls] = 0
		}
	}
	if e.netQBits < 0 {
		e.netQBits = 0
	}
}

// deliver queues one transferred request for compute, shedding on a full
// frame queue (evicting lower-priority frames first).
func (e *engine) deliver(now float64, it item) {
	cls := int(it.class)
	frames := e.classes[cls].Frames
	for e.compFrames+frames > compQueueBatches*e.sc.Compute.TargetBatch {
		if e.sc.Policy.ClassBlind || !e.evictComputeBelow(now, cls) {
			e.reject(now, it, shedOverflow)
			return
		}
	}
	e.compFrames += frames
	e.compFramesBy[cls] += frames
	e.compQ[cls] = append(e.compQ[cls], it)
}

// evictComputeBelow drops the newest queued compute request of the
// lowest-priority class strictly below cls.
func (e *engine) evictComputeBelow(now float64, cls int) bool {
	for j := len(e.compQ) - 1; j > cls; j-- {
		q := e.compQ[j]
		if len(q) == 0 {
			continue
		}
		victim := q[len(q)-1]
		e.compQ[j] = q[:len(q)-1]
		f := e.classes[victim.class].Frames
		e.compFrames -= f
		e.compFramesBy[j] -= f
		victim.bits = e.classes[j].Bits
		e.reject(now, victim, shedOverflow)
		return true
	}
	return false
}

// serveCompute launches batches while the device is free within the step.
func (e *engine) serveCompute(t, stepEnd float64) {
	for {
		launch := t
		if e.busyUntil > launch {
			launch = e.busyUntil
		}
		if launch >= stepEnd || !e.shouldLaunch(launch) {
			return
		}
		e.launchBatch(launch)
	}
}

// shouldLaunch applies the batching policy at time t.
func (e *engine) shouldLaunch(t float64) bool {
	if e.compFrames == 0 {
		return false
	}
	if e.compFrames >= e.sc.Compute.TargetBatch {
		return true
	}
	oldest := math.Inf(1)
	for _, q := range e.compQ {
		if len(q) > 0 && q[0].ready < oldest {
			oldest = q[0].ready
		}
	}
	return t-oldest >= e.sc.Compute.MaxWaitSec
}

// launchBatch forms a batch in strict priority order and executes it on
// the device under the current thermal and hazard regime.
func (e *engine) launchBatch(launch float64) {
	maxBatch := e.sc.Compute.TargetBatch
	frames := 0

	// Take whole items in strict priority order — class 0 drains fully
	// before class 1 contributes — until the batch is full; class-blind
	// policies give each slot to the longest-delivered head instead, ties
	// to the higher priority. The first item is always taken so an
	// oversized request cannot wedge the queue, and the fill stops at the
	// first item that does not fit (skipping it for a smaller later one
	// would invert the service order).
	taken := e.taken
	for i := range taken {
		taken[i] = 0
	}
	total := 0
	for {
		best, bestReady := -1, math.Inf(1)
		for cls, q := range e.compQ {
			if taken[cls] == len(q) {
				continue
			}
			if !e.sc.Policy.ClassBlind {
				best = cls
				break
			}
			if q[taken[cls]].ready < bestReady {
				best, bestReady = cls, q[taken[cls]].ready
			}
		}
		if best < 0 {
			break
		}
		f := e.classes[best].Frames
		if total > 0 && frames+f > maxBatch {
			break
		}
		taken[best]++
		total++
		frames += f
		if frames >= maxBatch {
			break
		}
	}
	if total == 0 {
		return
	}

	secs, good := e.dev.Launch(launch, frames)
	done := launch + secs
	e.busyUntil = done

	// Settle the taken items: completion or corruption.
	for cls, n := range taken {
		for _, it := range e.compQ[cls][:n] {
			e.compFrames -= e.classes[it.class].Frames
			e.compFramesBy[cls] -= e.classes[it.class].Frames
			if good {
				lat := done - it.arrival + e.sc.Network.BaseLatencySec
				e.lat[cls].Observe(lat)
				e.perClass[cls].Completed++
				e.res.Completed++
				if lat <= e.classes[cls].DeadlineSec {
					e.perClass[cls].DeadlineMet++
				}
			} else {
				it.bits = e.classes[cls].Bits // a retry re-transfers the payload
				e.reject(done, it, shedFailed)
			}
		}
		rest := copy(e.compQ[cls], e.compQ[cls][n:])
		e.compQ[cls] = e.compQ[cls][:rest]
	}

	// Fold the realized service rate into the backlog estimator.
	if frames > 0 && secs > 0 {
		e.svcPerFrame = 0.7*e.svcPerFrame + 0.3*secs/float64(frames)
	}
}

// admissionScale folds the regime the governor last reported entering
// into one admission-rate multiplier: the product of its capacity and keep
// factors, each capped at 1, floored (as is NaN) at minAdmissionScale.
func admissionScale(gov *resilience.Governor) float64 {
	capacity, keep := gov.Transitions()
	if s := min(capacity, 1) * min(keep, 1); s >= minAdmissionScale {
		return s
	}
	return minAdmissionScale
}

// finish assembles the result.
func (e *engine) finish(durationSec float64) {
	sc := e.sc
	e.res.Name = sc.Name
	e.res.Policy = sc.Policy.Name
	for cls := range e.perClass {
		c := &e.perClass[cls]
		c.InFlight = len(e.compQ[cls])
		h := e.lat[cls]
		if h.Count() > 0 {
			c.MeanLatencySec = h.Mean()
			c.P95LatencySec = h.Quantile(0.95)
			c.P99LatencySec = h.Quantile(0.99)
			c.MaxLatencySec = h.Max()
		}
		if c.Offered > 0 {
			c.SLOAttainment = float64(c.DeadlineMet) / float64(c.Offered)
			c.ShedFraction = float64(c.ShedAdmission+c.ShedDeadline+c.ShedOverflow+c.Failed) / float64(c.Offered)
		}
		if durationSec > 0 {
			c.GoodputPerSec = float64(c.DeadlineMet) / durationSec
		}
		e.res.Offered += c.Offered
	}
	// Network-stage and pending-retry items count as in flight too.
	for cls := range e.netQ {
		e.perClass[cls].InFlight += len(e.netQ[cls])
	}
	for _, re := range e.retries {
		e.perClass[re.it.class].InFlight++
	}
	e.res.Classes = e.perClass
	d := &e.dev
	e.res.Batches, e.res.Upsets, e.res.Resets = d.Batches, d.Upsets, d.Resets
	e.res.EnergyJ, e.res.BusySec, e.res.ThrottleSec = d.EnergyJ, d.BusySec, d.ThrottleSec

	if ext := sc.Obs; ext != nil {
		ext.SetTime(durationSec)
		ext.Counter("qos.offered").Add(e.res.Offered)
		ext.Counter("qos.admitted").Add(e.res.Admitted)
		ext.Counter("qos.completed").Add(e.res.Completed)
		ext.Counter("qos.shed").Add(e.res.Shed)
		ext.Counter("qos.failed").Add(e.res.Failed)
		ext.Counter("qos.retries").Add(e.res.Retries)
		ext.Counter("qos.batches").Add(e.res.Batches)
		ext.Counter("qos.upsets").Add(e.res.Upsets)
		ext.Gauge("qos.energy_j").Set(e.res.EnergyJ)
		ext.Gauge("qos.peak_backlog_sec").Set(e.res.PeakBacklogSec)
		merged := ext.Histogram("qos.latency_secs", obs.LatencyBuckets)
		for _, h := range e.lat {
			merged.Merge(h)
		}
	}
}
