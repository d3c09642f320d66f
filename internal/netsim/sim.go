package netsim

import (
	"sort"

	"spacedc/internal/obs"
	"spacedc/internal/units"
)

// arrival is a run of segments in flight on a link, due together at the
// far end after the propagation delay.
type arrival struct {
	due float64
	run segRun
	to  int
}

// Run executes one scenario to completion and returns its measurement
// record. Runs are deterministic given the scenario (including its seed)
// and share no mutable state, so many can run concurrently. Observability
// (Scenario.Obs) records alongside the run but never feeds back into it,
// so instrumented and bare runs are bit-identical.
func Run(scenario Scenario) (Result, error) {
	sc := scenario.withDefaults()
	if err := sc.Validate(); err != nil {
		return Result{}, err
	}
	// Metric handles resolve once here; with Obs == nil every handle is
	// nil and each instrumented site below costs a single nil-check. The
	// loss/recovery counters flush once at the end from the Result fields
	// the simulator already keeps (so they cover the measurement window,
	// like the Result); only the per-step samples pay inside the loop.
	reg := sc.Obs
	runSpan := reg.StartSpan("netsim.run")
	var (
		hQBits = reg.Histogram("netsim.step_queue_bits", obs.SizeBuckets)
		hUtil  = reg.Histogram("netsim.step_utilization", obs.RatioBuckets)
	)
	g, err := BuildGraph(sc.Topology)
	if err != nil {
		return Result{}, err
	}
	// The fault clocks are bounded here rather than in Validate, since
	// their count is the built graph's.
	if flips := sc.Faults.expectedFlips(len(g.Links), len(g.Sources), sc.DurationSec); !(flips <= MaxFaultFlips) {
		return Result{}, designErrf("faults", "%d links and %d satellites over %v s are expected to make %.3g fault-clock flips, over the %d-flip ceiling",
			len(g.Links), len(g.Sources), sc.DurationSec, flips, MaxFaultFlips)
	}
	steps := int(sc.DurationSec/sc.StepSec + 0.5)
	fs := newFaultState(sc.Faults, sc.Topology, g, sc.Seed, sc.StepSec, steps)

	// A step visits only the sources with an emission or a timer due; the
	// graph is built once per run, so their node IDs never go stale.
	params := &flowParams{rateBps: float64(sc.PerSat), segmentBits: sc.SegmentBits, cfg: sc.Transport}
	fl := newFlows(g, g.Sources, params, sc.StepSec, steps)

	res := Result{Name: sc.Name, MeasuredSec: sc.DurationSec - sc.WarmupSec}
	var (
		offeredBits, deliBits float64
		inflight              []arrival
	)

	// Latency accumulator: a run-local fixed-bucket histogram instead of a
	// per-segment slice keeps fault-heavy runs memory-flat (O(buckets), not
	// O(delivered segments) — retransmission storms used to grow the slice
	// without bound). Mean and max stay exact from the running sum/max; P95
	// is interpolated from the buckets, within one bucket width (~15%) of
	// the sorted-sample value, the same trade sched.Simulate already made.
	// The accumulator is local so runs sharing a registry cannot leak
	// samples into each other's Result; it merges into the registry once at
	// the end, where -metrics runs expose the full distribution.
	lat := obs.NewHistogram(obs.LatencyBuckets)

	// enqueue pushes run onto nodeID's routed out-link, dropping it when
	// the node is partitioned or the queue is full; the source's timer
	// recovers either loss.
	enqueue := func(nodeID int, run segRun, measure bool) {
		li := g.next[nodeID]
		if li < 0 {
			if measure {
				res.NoRouteDrops += run.n
			}
			return
		}
		g.enqueue(li, run, measure)
	}

	// handleArrival delivers a run at a sink or forwards it one hop onward.
	handleArrival := func(now float64, a arrival, measure bool) {
		if !g.isSink(a.to) {
			enqueue(a.to, a.run, measure)
			return
		}
		delivered, late, dups := fl.of(a.run.flow).ackRun(a.run)
		if !measure {
			return
		}
		res.LateAbandoned += late
		res.Duplicates += dups
		if delivered == 0 {
			return
		}
		res.DeliveredSegs += delivered
		// A run-long sum that can pass 2^53, where a multiply would not
		// match the per-segment additions.
		deliBits = obs.AddN(deliBits, a.run.bits, delivered)
		l := now - a.run.born
		lat.ObserveN(l, delivered)
		if latencyTap != nil {
			for k := 0; k < delivered; k++ {
				latencyTap(l)
			}
		}
	}

	g.recomputeRoutes()
	res.RouteRecomputes++

	nextEpoch := sc.EpochSec
	for step := 1; step <= steps; step++ {
		now := float64(step) * sc.StepSec
		measure := now > sc.WarmupSec
		reg.SetTime(now)

		// (1) Epoch boundary: the link graph is fixed for the run, so a
		// boundary only schedules a full route recompute at (3).
		epoch := false
		if now >= nextEpoch {
			nextEpoch = nextEpochAfter(nextEpoch, now, sc.EpochSec)
			epoch = true
		}

		// (2) Fault layer: MTBF/MTTR processes and the eclipse sweep. All
		// of a step's transitions are batched into the graph's pending
		// usability record before any routing work happens. A satellite
		// that failed or recovered settles its source's credit.
		changed := fs.update(step, g, measure)
		for _, id := range fs.flipped {
			fl.flip(id, step)
		}

		// (3) Routing: an epoch boundary always takes the full multi-source
		// BFS; fault transitions between boundaries take the incremental
		// repair path (unless a test's fullRecompute forces the full BFS —
		// both paths produce bit-identical tables and Results).
		if epoch {
			g.recomputeRoutes()
			res.RouteRecomputes++
		} else if changed {
			res.RouteRecomputes++
			res.RouteRepairs++
			if sc.fullRecompute {
				g.recomputeRoutes()
			} else {
				g.repairRoutes()
			}
		}

		// (4) Deliver segments whose propagation completed.
		kept := inflight[:0]
		for _, a := range inflight {
			if a.due <= now {
				handleArrival(now, a, measure)
			} else {
				kept = append(kept, a)
			}
		}
		inflight = kept

		// (5) Sources: the ones whose credit reaches a whole segment this
		// step emit it, in source order.
		fl.generate(step, now, func(run segRun) {
			enqueue(run.flow, run, measure)
			if measure {
				res.OfferedSegs += run.n
				offeredBits += float64(run.n) * sc.SegmentBits
			}
		})

		// (6) Transport timers: the sources with a deadline due retransmit
		// with exponential backoff, in source order.
		retx, aband := fl.expire(step, now, func(run segRun) {
			enqueue(run.flow, run, measure)
		})
		if measure {
			res.Retransmits += retx
			res.Abandoned += aband
		}

		// (7) Link service: each busy, usable link drains up to
		// capacity × dt. Walking the busy set instead of every link makes
		// service O(links carrying traffic); sorting it first restores the
		// ascending-ID order a full scan had, so results are unchanged.
		// Links drained empty (or purged by a satellite failure) leave the
		// set; unusable ones stay, holding their queue for recovery.
		var stepServed, stepCap float64
		sort.Ints(g.busyIDs)
		keptBusy := g.busyIDs[:0]
		for _, li := range g.busyIDs {
			l := g.Links[li]
			if len(l.q) == 0 {
				g.busy[li] = false
				continue
			}
			if !g.usable(l) {
				keptBusy = append(keptBusy, li)
				continue
			}
			stepServed += l.serve(now, sc.StepSec, measure, func(run segRun, to int, due float64) {
				inflight = append(inflight, arrival{due: due, run: run, to: to})
			})
			if len(l.q) == 0 {
				g.busy[li] = false
			} else {
				keptBusy = append(keptBusy, li)
			}
		}
		g.busyIDs = keptBusy

		// (8) Metrics: sample queue depths. Only busy links can move their
		// peak (everything else holds qBits == 0), so the sample walks the
		// busy set too. The utilization denominator — the full usable
		// capacity — is instrumented-only and pays the one whole-link scan.
		if measure {
			for _, li := range g.busyIDs {
				if l := g.Links[li]; l.qBits > l.peakQBits {
					l.peakQBits = l.qBits
				}
			}
		}
		if reg != nil {
			var qb float64
			for _, li := range g.busyIDs {
				qb += g.Links[li].qBits
			}
			for _, l := range g.Links {
				if g.usable(l) {
					stepCap += l.CapacityBps * sc.StepSec
				}
			}
			hQBits.Observe(qb)
			if stepCap > 0 {
				hUtil.Observe(stepServed / stepCap)
				reg.Emit("netsim.util", "sample", stepServed/stepCap)
			}
			reg.Emit("netsim.queue_bits", "sample", qb)
		}
	}

	res.FaultEvents = fs.Events
	res.OfferedRate = units.DataRate(offeredBits / res.MeasuredSec)
	res.DeliveredRate = units.DataRate(deliBits / res.MeasuredSec)
	if offeredBits > 0 {
		res.DeliveryRatio = deliBits / offeredBits
	}
	res.LatencySec = obs.Summary{
		Count: int(lat.Count()),
		Mean:  lat.Mean(),
		P95:   lat.Quantile(0.95),
		Max:   lat.Max(),
	}
	res.finalizeLinks(g)
	if reg != nil {
		reg.SetTime(sc.DurationSec)
		reg.Histogram("netsim.segment_latency_secs", obs.LatencyBuckets).Merge(lat)
		reg.Counter("netsim.delivered_segs").Add(res.DeliveredSegs)
		reg.Counter("netsim.duplicates").Add(res.Duplicates)
		reg.Counter("netsim.late_abandoned").Add(res.LateAbandoned)
		reg.Counter("netsim.retransmits").Add(res.Retransmits)
		reg.Counter("netsim.abandoned").Add(res.Abandoned)
		reg.Counter("netsim.noroute_drops").Add(res.NoRouteDrops)
		reg.Counter("netsim.link_drops").Add(res.LinkDrops)
		reg.Counter("netsim.fault_events").Add(res.FaultEvents)
		reg.Counter("netsim.route_recomputes").Add(res.RouteRecomputes)
		reg.Counter("netsim.route_repairs").Add(res.RouteRepairs)
		reg.Gauge("netsim.delivery_ratio").Set(res.DeliveryRatio)
		reg.Gauge("netsim.bottleneck_util").Set(res.BottleneckUtil)
	}
	runSpan.End()
	return res, nil
}

// enqueue appends to link li the longest prefix of run that fits under the
// queue limit and drops the rest (counted inside the measurement window).
// The link joins the busy set only if it admitted something. qBits is a
// whole number of bits no larger than the limit, which is below 2^53
// (Scenario.Validate), so the prefix that admitting one segment at a time
// would take is ⌊(limit − qBits)/bits⌋ segments, and every sum on the way
// is exact.
func (g *Graph) enqueue(li int, run segRun, measure bool) {
	l := g.Links[li]
	admitted := 0
	// The conversion floors: limit − qBits is exact and below 2^53.
	if room := int64(l.QueueLimitBits-l.qBits) / int64(run.bits); room > 0 {
		admitted = int(min(room, int64(run.n)))
		l.qBits += float64(admitted) * run.bits
	}
	if measure {
		l.drops += run.n - admitted
	}
	if admitted > 0 {
		run.n = admitted
		l.q = append(l.q, run)
		g.markBusy(li)
	}
}

// serve drains up to capacity × dt bits from the FIFO head, handing each
// run of segments it completes to deliver with their propagation due time.
// A run the budget ends inside stays at the head with its completed
// segments removed, and partial service of its first segment persists in
// headDone across steps. It returns the bits actually served this step
// (independent of the measurement window).
//
// Only a run's first segment can be partly served, so it takes the float
// steps single-segment service took; each whole segment after it costs
// exactly bits, and the budget pays for ⌊budget/bits⌋ of them at once.
// That gives the same bits as serving them one by one. The step budget B
// is below 2^53 (Scenario.Validate); budget, headDone, need and served
// stay multiples of ulp(B), with served + budget = B, and a whole-bit size
// is such a multiple too, so none of the sums and differences rounds. qBits
// drops by whole segments; the measured sentBits, a run-long sum that can
// pass 2^53, takes obs.AddN.
//
// Finished runs are popped by compacting the queue in place after the
// drain loop, so the backing array is reused and steady-state service
// allocates nothing.
func (l *Link) serve(now, dt float64, measure bool, deliver func(run segRun, to int, due float64)) float64 {
	budget := l.CapacityBps * dt
	served := 0.0
	popped := 0
	for budget > 0 && popped < len(l.q) {
		head := &l.q[popped]
		need := head.bits - l.headDone
		if need > budget {
			l.headDone += budget
			served += budget
			break
		}
		budget -= need
		served += need
		l.headDone = 0
		// The conversion floors: budget is below 2^53.
		done := 1 + min(head.n-1, int(int64(budget)/int64(head.bits)))
		whole := float64(done-1) * head.bits
		budget -= whole
		served += whole
		l.qBits = max(l.qBits-float64(done)*head.bits, 0)
		if measure {
			l.sentBits = obs.AddN(l.sentBits, head.bits, done)
		}
		deliver(segRun{head.segment, done}, l.To, now+l.DelaySec)
		head.seq += int64(done)
		if head.n -= done; head.n == 0 {
			popped++
		}
	}
	if popped > 0 {
		l.q = l.q[:copy(l.q, l.q[popped:])]
	}
	return served
}

// nextEpochAfter returns the first epoch boundary strictly after now,
// advancing from the current boundary. Looping the catch-up (rather than
// a single += epochSec) keeps the driver's invariant nextEpoch > now even
// when one step spans several epochs (StepSec > EpochSec): a single
// increment would let nextEpoch fall permanently behind the clock, leaving
// the driver taking the full route recompute on every subsequent step
// regardless of the configured epoch cadence.
func nextEpochAfter(nextEpoch, now, epochSec float64) float64 {
	for nextEpoch <= now {
		nextEpoch += epochSec
	}
	return nextEpoch
}

// latencyTap, when set by a test, receives every measured segment's exact
// delivery latency. It exists so accuracy tests can compare the
// bucket-derived Result.LatencySec against an exact obs.Summarize of the
// same samples; production code never sets it.
var latencyTap func(latencySec float64)
