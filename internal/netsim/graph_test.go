package netsim

import (
	"testing"

	"spacedc/internal/isl"
)

func TestRingGraphStructure(t *testing.T) {
	g, err := BuildGraph(TopologySpec{
		Kind: ClusterTopology, Sats: 8, Cluster: isl.Ring,
		Tech: isl.RFKaBand, QueueSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Sinks) != 1 || len(g.Sources) != 8 {
		t.Fatalf("ring has %d sinks / %d sources, want 1/8", len(g.Sinks), len(g.Sources))
	}
	// A ring of 9 positions: every adjacent pair linked in both
	// directions → 18 directed links.
	if len(g.Links) != 18 {
		t.Errorf("ring link count %d, want 18", len(g.Links))
	}
	g.recomputeRoutes()
	for _, s := range g.Sources {
		if g.next[s] < 0 {
			t.Errorf("source %d unrouted in a healthy ring", s)
		}
	}
	// The farthest satellite sits ⌈8/2⌉ hops out.
	maxDist := 0
	for _, s := range g.Sources {
		if g.dist[s] > maxDist {
			maxDist = g.dist[s]
		}
	}
	if maxDist != 4 {
		t.Errorf("ring eccentricity %d, want 4", maxDist)
	}
}

func TestRoutingReroutesAroundDownLink(t *testing.T) {
	g, err := BuildGraph(TopologySpec{
		Kind: ClusterTopology, Sats: 6, Cluster: isl.Ring,
		Tech: isl.RFKaBand, QueueSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.recomputeRoutes()
	// Kill node 1's routed link toward the sink; the ring must still
	// reach the SµDC the long way around.
	li := g.next[1]
	before := g.dist[1]
	g.Links[li].Up = false
	g.recomputeRoutes()
	if g.next[1] < 0 {
		t.Fatal("node 1 partitioned by a single link failure in a ring")
	}
	if g.dist[1] <= before {
		t.Errorf("detour distance %d should exceed direct %d", g.dist[1], before)
	}
	if g.next[1] == li {
		t.Error("routing still uses the dead link")
	}
}

func TestKListReceiverCount(t *testing.T) {
	g, err := BuildGraph(TopologySpec{
		Kind: ClusterTopology, Sats: 16, Cluster: isl.Topology{K: 4, Split: 1},
		Tech: isl.RFKaBand, QueueSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	sink := g.Sinks[0]
	in := 0
	for _, l := range g.Links {
		if l.To == sink {
			in++
		}
	}
	if in != 4 {
		t.Errorf("4-list sink has %d receiver links, want K=4", in)
	}
}

func TestGEOStarAssignsEverySatellite(t *testing.T) {
	g, err := BuildGraph(TopologySpec{
		Kind: GEOStarTopology, Sats: 10, Tech: isl.Optical10G, QueueSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Sinks) != 3 {
		t.Fatalf("GEO star has %d sinks, want 3", len(g.Sinks))
	}
	if len(g.Links) != 10 {
		t.Errorf("GEO star has %d links, want one per satellite", len(g.Links))
	}
	g.recomputeRoutes()
	for _, s := range g.Sources {
		if g.next[s] < 0 {
			t.Errorf("satellite %d has no GEO uplink", s)
		}
		if g.dist[s] != 1 {
			t.Errorf("satellite %d at distance %d, star should be one hop", s, g.dist[s])
		}
	}
}

// TestEnqueueAdmitsRunPrefix covers a queue limit that falls inside a run:
// the link admits the longest prefix that fits, drops the rest one count
// per segment, and joins the busy set only when it admitted something.
func TestEnqueueAdmitsRunPrefix(t *testing.T) {
	g, err := BuildGraph(TopologySpec{
		Kind: ClusterTopology, Sats: 6, Cluster: isl.Ring,
		Tech: isl.RFKaBand, QueueSec: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	l := g.Links[0]
	l.QueueLimitBits = 25
	g.enqueue(0, segRun{segment{flow: 1, seq: 1, bits: 10}, 4}, true)
	if len(l.q) != 1 || l.q[0].seq != 1 || l.q[0].n != 2 || l.qBits != 20 {
		t.Fatalf("queue %+v with %v bits, want one run of seqs 1–2 holding 20 bits", l.q, l.qBits)
	}
	if l.drops != 2 {
		t.Errorf("drops = %d, want 2 (one per refused segment)", l.drops)
	}
	if len(g.busyIDs) != 1 || g.busyIDs[0] != 0 {
		t.Errorf("busy set %v, want [0]", g.busyIDs)
	}
	// The full queue refuses a whole run; outside the measurement window
	// the refusal is not counted.
	g.enqueue(0, segRun{segment{flow: 1, seq: 5, bits: 10}, 3}, true)
	g.enqueue(0, segRun{segment{flow: 1, seq: 8, bits: 10}, 3}, false)
	if len(l.q) != 1 || l.qBits != 20 || l.drops != 5 {
		t.Errorf("full queue: %d runs, %v bits, %d drops; want 1, 20, 5", len(l.q), l.qBits, l.drops)
	}
	// A link that admits nothing never joins the busy set.
	g.Links[1].QueueLimitBits = 5
	g.enqueue(1, segRun{segment{flow: 2, seq: 1, bits: 10}, 2}, true)
	if len(g.Links[1].q) != 0 || g.Links[1].drops != 2 || len(g.busyIDs) != 1 {
		t.Errorf("refused run left %d runs, %d drops, busy set %v", len(g.Links[1].q), g.Links[1].drops, g.busyIDs)
	}
}

// TestServeSplitsHeadRunAcrossSteps covers a head run that a step's budget
// ends inside: the completed segments leave as one run, the rest stay at
// the head, and the partial service of the next segment carries over in
// headDone to finish first in the following step.
func TestServeSplitsHeadRunAcrossSteps(t *testing.T) {
	l := &Link{To: 7, CapacityBps: 25, DelaySec: 0.5, QueueLimitBits: 1e9}
	l.q = []segRun{{segment{flow: 1, seq: 1, bits: 10, born: 0.25}, 4}, {segment{flow: 1, seq: 5, bits: 10, born: 0.75}, 1}}
	l.qBits = 50
	type hop struct {
		run segRun
		to  int
		due float64
	}
	var out []hop
	deliver := func(run segRun, to int, due float64) { out = append(out, hop{run, to, due}) }

	if served := l.serve(1, 1, true, deliver); served != 25 {
		t.Errorf("step 1 served %v bits, want 25", served)
	}
	want := []hop{{segRun{segment{flow: 1, seq: 1, bits: 10, born: 0.25}, 2}, 7, 1.5}}
	if len(out) != 1 || out[0] != want[0] {
		t.Fatalf("step 1 delivered %+v, want %+v", out, want)
	}
	if len(l.q) != 2 || l.q[0].seq != 3 || l.q[0].n != 2 || l.headDone != 5 || l.qBits != 30 {
		t.Fatalf("after step 1: queue %+v, headDone %v, qBits %v; want seqs 3–4 at the head, headDone 5, qBits 30",
			l.q, l.headDone, l.qBits)
	}

	// Step 2: 5 bits finish seq 3, 10 finish seq 4, 10 finish seq 5.
	out = out[:0]
	if served := l.serve(2, 1, true, deliver); served != 25 {
		t.Errorf("step 2 served %v bits, want 25", served)
	}
	want = []hop{
		{segRun{segment{flow: 1, seq: 3, bits: 10, born: 0.25}, 2}, 7, 2.5},
		{segRun{segment{flow: 1, seq: 5, bits: 10, born: 0.75}, 1}, 7, 2.5},
	}
	if len(out) != 2 || out[0] != want[0] || out[1] != want[1] {
		t.Fatalf("step 2 delivered %+v, want %+v", out, want)
	}
	if len(l.q) != 0 || l.headDone != 0 || l.qBits != 0 || l.sentBits != 50 {
		t.Errorf("after step 2: %d runs, headDone %v, qBits %v, sentBits %v; want an empty queue and 50 bits sent",
			len(l.q), l.headDone, l.qBits, l.sentBits)
	}
}
