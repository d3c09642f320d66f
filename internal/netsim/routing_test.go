package netsim

import (
	"math/rand"
	"reflect"
	"testing"

	"spacedc/internal/isl"
	"spacedc/internal/units"
)

// TestIncrementalRoutingMatchesFullBFS is the differential property test
// behind the incremental maintainer's bit-identity promise: arbitrary
// sequences of link flips, satellite flips, eclipse transitions, and epoch
// rebuilds are applied to one graph through the batch-and-repair path
// while a shadow graph mirrors the same state and recomputes from scratch
// — next[] and dist[] must agree exactly after every batch. Runs under
// -race in tier-1 via the netsim package race gate.
func TestIncrementalRoutingMatchesFullBFS(t *testing.T) {
	cases := []struct {
		name string
		spec TopologySpec
		eo   bool
	}{
		{"ring", TopologySpec{Kind: ClusterTopology, Sats: 9, Cluster: isl.Ring, Tech: isl.RFKaBand, QueueSec: 1}, false},
		{"klist-split", TopologySpec{Kind: ClusterTopology, Sats: 24, Cluster: isl.Topology{K: 4, Split: 2}, Tech: isl.Optical10G, QueueSec: 1}, true},
		{"geo-star", TopologySpec{Kind: GEOStarTopology, Sats: 12, GEOSinks: 3, Tech: isl.Optical10G, QueueSec: 1}, true},
		{"2shell", TopologySpec{Kind: ClusterTopology, Tech: isl.Optical10G, QueueSec: 1,
			Shells: []ShellSpec{
				{Sats: 9, Cluster: isl.Ring, AltKm: 550},
				{Sats: 6, Cluster: isl.Ring, AltKm: 800},
			},
			InterShell: []InterShellRule{{Kind: InterShellAligned}},
		}, true},
		{"3shell", TopologySpec{Kind: ClusterTopology, Tech: isl.Optical10G, QueueSec: 1,
			Shells: []ShellSpec{
				{Sats: 12, Cluster: isl.Topology{K: 4, Split: 2}, AltKm: 550},
				{Sats: 9, Cluster: isl.Ring, AltKm: 800},
				{Sats: 6, Cluster: isl.Ring, AltKm: 1100},
			},
			InterShell: []InterShellRule{
				{Kind: InterShellNearest},
				{Kind: InterShellAligned, CrossLinks: 3},
			},
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			g, err := BuildGraph(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			shadow, err := BuildGraph(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			// Inter-shell link IDs, stable across same-spec rebuilds; the
			// multi-shell cases get a dedicated mutation branch so the repair
			// path is exercised across shell boundaries, not just within one.
			var crossIDs []int
			for _, l := range g.Links {
				if g.nodes[l.From].shell != g.nodes[l.To].shell {
					crossIDs = append(crossIDs, l.ID)
				}
			}
			if len(tc.spec.Shells) > 1 && len(crossIDs) == 0 {
				t.Fatal("multi-shell spec built no inter-shell links")
			}
			mutations := 3
			if len(crossIDs) > 0 {
				mutations = 4
			}
			g.recomputeRoutes(tc.eo)
			shadow.recomputeRoutes(tc.eo)
			repaired, crossFlips := 0, 0
			for batch := 0; batch < 400; batch++ {
				// Occasional epoch rebuild: the incremental side must carry
				// its state into a fresh graph and keep repairing correctly
				// afterward.
				if rng.Intn(25) == 0 {
					ng, err := BuildGraph(tc.spec)
					if err != nil {
						t.Fatal(err)
					}
					ng.adoptState(g)
					g = ng
					g.recomputeRoutes(tc.eo)
				}
				for m := 1 + rng.Intn(3); m > 0; m-- {
					switch rng.Intn(mutations) {
					case 0: // link pointing loss / reacquisition
						li := rng.Intn(len(g.Links))
						g.noteLink(li, tc.eo)
						g.Links[li].Up = !g.Links[li].Up
						shadow.Links[li].Up = g.Links[li].Up
					case 1: // whole-satellite failure / recovery
						s := g.Sources[rng.Intn(len(g.Sources))]
						g.noteNode(s, tc.eo)
						g.nodes[s].Up = !g.nodes[s].Up
						shadow.nodes[s].Up = g.nodes[s].Up
					case 2: // eclipse sweep transition (never on GEO nodes)
						i := rng.Intn(len(g.nodes))
						if g.nodes[i].geo {
							i = g.Sources[0]
						}
						g.noteNode(i, tc.eo)
						g.nodes[i].eclipsed = !g.nodes[i].eclipsed
						shadow.nodes[i].eclipsed = g.nodes[i].eclipsed
					default: // inter-shell link downed/restored
						li := crossIDs[rng.Intn(len(crossIDs))]
						g.noteLink(li, tc.eo)
						g.Links[li].Up = !g.Links[li].Up
						shadow.Links[li].Up = g.Links[li].Up
						crossFlips++
					}
				}
				if g.repairRoutes(tc.eo) {
					repaired++
				}
				shadow.recomputeRoutes(tc.eo)
				if !reflect.DeepEqual(g.dist, shadow.dist) {
					t.Fatalf("batch %d: dist diverged\nincremental: %v\nfull BFS:    %v", batch, g.dist, shadow.dist)
				}
				if !reflect.DeepEqual(g.next, shadow.next) {
					t.Fatalf("batch %d: next diverged\nincremental: %v\nfull BFS:    %v", batch, g.next, shadow.next)
				}
			}
			if repaired == 0 {
				t.Fatal("no batch produced a net usability change; the repair path went unexercised")
			}
			if len(crossIDs) > 0 && crossFlips == 0 {
				t.Fatal("no inter-shell link was ever downed/restored; the cross-shell repair path went unexercised")
			}
		})
	}
}

// TestRunFullRecomputeBitIdentity asserts the end-to-end guarantee: a
// fault-storm run on the incremental repair path produces a Result
// byte-identical to the same scenario forced onto the full-BFS path.
func TestRunFullRecomputeBitIdentity(t *testing.T) {
	sc := heavyFaultScenario()
	inc, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if inc.RouteRepairs == 0 {
		t.Fatal("fault-heavy scenario exercised no incremental repairs")
	}
	full := sc
	full.FullRecompute = true
	ref, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc, ref) {
		t.Fatalf("incremental and full-BFS runs diverged:\nincremental: %+v\nfull:        %+v", inc, ref)
	}
}

// TestNextEpochAfterCatchesUp is the regression test for the epoch
// catch-up bug: advancing nextEpoch by a single EpochSec per rebuild let
// it fall permanently behind the clock whenever one step spanned several
// epochs. The invariant is nextEpoch > now after every rebuild.
func TestNextEpochAfterCatchesUp(t *testing.T) {
	cases := []struct {
		nextEpoch, now, epoch, want float64
	}{
		{60, 60, 60, 120},   // exact boundary: one increment
		{60, 100, 60, 120},  // mid-epoch step: one increment
		{60, 250, 60, 300},  // step jumped past three epochs: loop catch-up
		{20, 500, 20, 520},  // StepSec >> EpochSec regime
		{10, 10.05, 10, 20}, // fractional clocks
	}
	for _, c := range cases {
		got := nextEpochAfter(c.nextEpoch, c.now, c.epoch)
		if got != c.want {
			t.Errorf("nextEpochAfter(%v, %v, %v) = %v, want %v", c.nextEpoch, c.now, c.epoch, got, c.want)
		}
		if got <= c.now {
			t.Errorf("nextEpochAfter(%v, %v, %v) = %v violates nextEpoch > now", c.nextEpoch, c.now, c.epoch, got)
		}
	}
}

// TestEpochSpanningStepsRebuildOncePerStep runs a scenario whose step
// spans multiple epochs end to end: the driver must rebuild exactly once
// per step (each step crosses boundaries) and keep its epoch clock ahead
// of the simulation clock rather than decaying into a lagged rebuild-
// always regime.
func TestEpochSpanningStepsRebuildOncePerStep(t *testing.T) {
	sc := ringScenario(8)
	sc.StepSec = 5
	sc.EpochSec = 2 // every 5 s step crosses two or three 2 s epochs
	sc.DurationSec = 60
	sc.WarmupSec = 10
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	steps := int(sc.DurationSec/sc.StepSec + 0.5)
	if r.TopologyRebuilds != steps {
		t.Errorf("TopologyRebuilds = %d, want one per epoch-crossing step (%d)", r.TopologyRebuilds, steps)
	}
	// Coarse 5 s steps burst each satellite's generation past the 1 s
	// queue, so delivery is lossy here by construction; the run just has to
	// keep moving traffic while rebuilding every step.
	if r.DeliveredSegs == 0 {
		t.Error("epoch-spanning run delivered nothing")
	}
}

// TestAdoptStateCountsVanishedSegments is the regression test for the
// silent rebuild drop: segments queued on a link whose (from,to) key has
// no successor in the new topology used to vanish without any counter
// recording them. adoptState must report exactly how many segments were
// lost that way, and zero when every link survives.
func TestAdoptStateCountsVanishedSegments(t *testing.T) {
	ringSpec := TopologySpec{Kind: ClusterTopology, Sats: 8, Cluster: isl.Ring, Tech: isl.RFKaBand, QueueSec: 1}
	old, err := BuildGraph(ringSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Queue five segments in two runs on a span-1 satellite link.
	old.Links[0].q = []segRun{{segment{seq: 1, bits: 10}, 3}, {segment{seq: 7, bits: 10}, 2}}
	old.Links[0].qBits = 50

	same, err := BuildGraph(ringSpec)
	if err != nil {
		t.Fatal(err)
	}
	if dropped := same.adoptState(old); dropped != 0 {
		t.Errorf("same-spec rebuild reported %d vanished segments, want 0", dropped)
	}
	if n := same.Links[0].queuedSegs(); n != 5 {
		t.Errorf("same-spec rebuild lost the adopted queue: %d segments", n)
	}

	// K=4 replaces every span-1 satellite link with span-2 links, so the
	// queued segments' link ceases to exist.
	wideSpec := TopologySpec{Kind: ClusterTopology, Sats: 8, Cluster: isl.Topology{K: 4, Split: 1}, Tech: isl.RFKaBand, QueueSec: 1}
	wide, err := BuildGraph(wideSpec)
	if err != nil {
		t.Fatal(err)
	}
	key := old.Links[0].key()
	for _, l := range wide.Links {
		if l.key() == key {
			t.Fatalf("link %v survived the K=4 rebuild; pick a different victim", key)
		}
	}
	if dropped := wide.adoptState(old); dropped != 5 {
		t.Errorf("K=4 rebuild reported %d vanished segments, want 5", dropped)
	}

	// A satellite failure purges the same queue: drops count segments,
	// not runs, and only inside the measurement window.
	l := old.Links[0]
	l.headDone = 4
	l.clearQueue(true)
	if l.drops != 5 || len(l.q) != 0 || l.qBits != 0 || l.headDone != 0 {
		t.Errorf("clearQueue left drops=%d, %d runs, qBits=%v, headDone=%v; want 5 drops and an empty queue",
			l.drops, len(l.q), l.qBits, l.headDone)
	}
	l.q = []segRun{{segment{seq: 9, bits: 10}, 4}}
	l.clearQueue(false)
	if l.drops != 5 || len(l.q) != 0 {
		t.Errorf("warm-up purge counted drops (%d) or kept the queue (%d runs)", l.drops, len(l.q))
	}
}

// TestLateAfterAbandonIsNotDuplicate pins the transport accounting
// semantics at the unit level: the first copy of an abandoned segment to
// arrive is late-after-abandon (no earlier copy ever arrived), the second
// is a duplicate of it; and a genuinely duplicated delivery stays a
// duplicate.
func TestLateAfterAbandonIsNotDuplicate(t *testing.T) {
	cfg := TransportConfig{RTOSec: 1, Backoff: 2, MaxAttempts: 1}
	s := newSource(1, &flowParams{1e6, 1e6, cfg})
	var emitted []segRun
	s.generate(0, 2, true, func(run segRun) { emitted = append(emitted, run) })
	if len(emitted) != 1 || emitted[0].n != 2 {
		t.Fatalf("generated %+v, want one run of 2 segments", emitted)
	}

	// Segment 1 times out and is abandoned (MaxAttempts=1), then its copy
	// straggles in — twice.
	_, aband := s.expire(5, true, func(segRun) { t.Fatal("MaxAttempts=1 must not retransmit") })
	if aband != 2 {
		t.Fatalf("expire abandoned %d segments, want 2", aband)
	}
	if got := s.ack(emitted[0].seq); got != ackLateAbandoned {
		t.Errorf("first copy of abandoned segment classified %v, want ackLateAbandoned", got)
	}
	if got := s.ack(emitted[0].seq); got != ackDuplicate {
		t.Errorf("second copy of abandoned segment classified %v, want ackDuplicate", got)
	}

	// A delivered segment's extra copy is a true duplicate, before and
	// after the window trims past it.
	s2 := newSource(2, &flowParams{1e6, 1e6, cfg})
	var runs []segRun
	s2.generate(0, 1, true, func(run segRun) { runs = append(runs, run) })
	if got := s2.ack(runs[0].seq); got != ackDelivered {
		t.Fatalf("first delivery classified %v, want ackDelivered", got)
	}
	if got := s2.ack(runs[0].seq); got != ackDuplicate {
		t.Errorf("re-delivery classified %v, want ackDuplicate", got)
	}

	// A run reaching a sink is classified segment by segment: seq 1 was
	// abandoned (late), seq 2 already delivered (duplicate), seqs 3–4 are
	// still outstanding (delivered). Only the sequence numbers matter to
	// the source; the run's birth time is the latency origin.
	s3 := newSource(3, &flowParams{1e6, 1e6, cfg})
	s3.generate(0, 2, true, func(segRun) {})
	s3.ack(2)
	if _, aband := s3.expire(5, true, func(segRun) {}); aband != 1 {
		t.Fatalf("expire abandoned %d segments, want 1", aband)
	}
	s3.generate(5, 2, true, func(segRun) {})
	delivered, late, dups := s3.ackRun(segRun{segment{flow: 3, seq: 1, bits: 1e6}, 4})
	if delivered != 2 || late != 1 || dups != 1 {
		t.Errorf("mixed run classified %d delivered / %d late / %d duplicate, want 2/1/1", delivered, late, dups)
	}
	if delivered, late, dups := s3.ackRun(segRun{segment{flow: 3, seq: 1, bits: 1e6}, 4}); delivered+late != 0 || dups != 4 {
		t.Errorf("repeat of the run classified %d/%d/%d, want 4 duplicates", delivered, late, dups)
	}
}

// TestLateAfterAbandonEndToEnd drives the misclassification through Run:
// a single-attempt transport over a saturated ring queues segments for
// longer than the RTO, so every segment is abandoned before its only copy
// arrives. Every such arrival must land in LateAbandoned — with one copy
// per segment there is nothing to duplicate, so Duplicates must stay 0
// (the old accounting put all of them there).
func TestLateAfterAbandonEndToEnd(t *testing.T) {
	sc := ringScenario(8)
	sc.PerSat = 300 * units.Mbps // 4×300M on the bottleneck: deep queues
	sc.Transport = TransportConfig{RTOSec: 0.5, Backoff: 2, MaxAttempts: 1}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.Abandoned == 0 {
		t.Fatal("saturated single-attempt ring abandoned nothing; scenario mistuned")
	}
	if r.LateAbandoned == 0 {
		t.Error("queued-past-RTO copies arrived but none were classified late-after-abandon")
	}
	if r.Duplicates != 0 {
		t.Errorf("MaxAttempts=1 run counted %d Duplicates; only one copy of each segment exists", r.Duplicates)
	}
}
