package sched

import (
	"fmt"

	"spacedc/internal/obs"
)

// This file keeps the heap-driven event loop Simulate ran before the frame
// calendar replaced it, verbatim but for the returned count of tied pops
// and for its random stream, which it takes from Simulate's own newStream
// under the same keep rule (discarded): refSimulate is the oracle
// FuzzSimulate checks Simulate against.

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

// refSimulate runs the heap-driven simulation and returns its statistics
// and the number of pops that left an event with the same time pending:
// the pops whose order among simultaneous events the heap's layout
// decided.
func refSimulate(cfg Config, proc Processor) (Stats, int, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, 0, err
	}
	if proc == nil {
		return Stats{}, 0, fmt.Errorf("sched: nil processor")
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

	ties := 0
	for len(h) > 0 {
		ev := h.pop()
		if ev.time > cfg.DurationSec {
			break
		}
		if len(h) > 0 && h[0].time == ev.time {
			ties++
		}
		now := ev.time
		switch ev.kind {
		case evArrival:
			// Schedule this satellite's next frame.
			h.push(event{time: now + cfg.FramePeriodSec, kind: evArrival, sat: ev.sat})
			if cfg.KeepProb != nil && discarded(rng, cfg.KeepProb(ev.sat, now)) {
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
	return stats, ties, nil
}
