package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"spacedc/internal/isl"
	"spacedc/internal/units"
)

func faultScenario(outage float64) Scenario {
	sc := ringScenario(8)
	sc.Name = "test-faults"
	sc.Faults = FaultConfig{LinkOutage: outage, LinkMTTRSec: 10}
	sc.DurationSec = 120
	sc.WarmupSec = 20
	return sc
}

func TestLinkOutagesDegradeGracefully(t *testing.T) {
	clean, err := Run(faultScenario(0))
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := Run(faultScenario(0.05))
	if err != nil {
		t.Fatal(err)
	}
	if faulty.FaultEvents == 0 {
		t.Fatal("5% outage regime produced no fault events")
	}
	if faulty.Retransmits == 0 {
		t.Error("outages should force retransmissions")
	}
	// Retransmission keeps most data flowing, but outages must cost
	// something relative to the clean run — delivery or latency.
	if faulty.DeliveryRatio > clean.DeliveryRatio+0.01 &&
		faulty.LatencySec.P95 <= clean.LatencySec.P95 {
		t.Errorf("outages were free: clean ratio %v p95 %v, faulty ratio %v p95 %v",
			clean.DeliveryRatio, clean.LatencySec.P95, faulty.DeliveryRatio, faulty.LatencySec.P95)
	}
	if faulty.DeliveryRatio < 0.5 {
		t.Errorf("ring with retransmission should survive 5%% outage, delivered only %v", faulty.DeliveryRatio)
	}
}

func TestSatelliteFailuresCutGenerationAndRelay(t *testing.T) {
	sc := faultScenario(0)
	sc.Faults = FaultConfig{SatMTBFSec: 120, SatMTTRSec: 60}
	sc.Seed = 7
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.FaultEvents == 0 {
		t.Fatal("satellite failure process never fired")
	}
	// Failed satellites stop generating, so the offered rate must dip
	// below the healthy 8 × 100 Mbit/s.
	if float64(r.OfferedRate) >= 8*100e6 {
		t.Errorf("offered rate %v shows no generation loss", r.OfferedRate)
	}
	// The ring must reroute around dead relays: most of what was offered
	// still arrives.
	if r.DeliveryRatio < 0.6 {
		t.Errorf("delivery ratio %v under satellite churn; rerouting broken?", r.DeliveryRatio)
	}
}

func TestEclipseSweepDropsOpticalLinks(t *testing.T) {
	sc := ringScenario(8)
	sc.Topology.Tech = isl.Optical10G
	sc.PerSat = 100 * units.Mbps
	sc.Faults = FaultConfig{EclipseOutage: true}
	sc.DurationSec = 120
	sc.WarmupSec = 20
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.FaultEvents == 0 {
		t.Fatal("eclipse sweep never shadowed a satellite")
	}
	if r.RouteRepairs == 0 {
		t.Error("eclipse transitions should force route repairs")
	}
	// RF terminals ignore the eclipse regime entirely.
	rf := sc
	rf.Topology.Tech = isl.RFKaBand
	rr, err := Run(rf)
	if err != nil {
		t.Fatal(err)
	}
	if rr.DeliveryRatio < 0.99 {
		t.Errorf("RF ring under eclipse regime delivered %v, want ≈1", rr.DeliveryRatio)
	}
}

// faultClocksAcrossEpochs seeds the fault processes over ts's graph and
// drives them across four epoch boundaries the way Run does: the fault
// layer updates and the routes are recomputed on the one graph built for
// the run. Every link and satellite must hold a finite fault clock no
// earlier than the current time, at t = 0 and after each boundary; a clock
// left at +Inf would make its link or satellite immortal for the run.
func faultClocksAcrossEpochs(t *testing.T, ts TopologySpec) *Graph {
	t.Helper()
	cfg := FaultConfig{LinkOutage: 0.2, LinkMTTRSec: 5, SatMTBFSec: 60, SatMTTRSec: 30, EclipseOutage: true}
	g, err := BuildGraph(ts)
	if err != nil {
		t.Fatal(err)
	}
	const epochSec, epochs = 30, 4
	fs := newFaultState(cfg, ts, g, 1, epochSec, epochs)
	g.recomputeRoutes()
	check := func(now float64) {
		dead := func(v float64) bool { return v < now || math.IsInf(v, 1) }
		for _, l := range g.Links {
			if dead(l.nextFlip) {
				t.Errorf("t=%v: link %d->%d fault clock %v", now, l.From, l.To, l.nextFlip)
			}
		}
		for _, s := range g.Sources {
			if dead(g.nodes[s].nextFlip) {
				t.Errorf("t=%v: satellite %d fault clock %v", now, s, g.nodes[s].nextFlip)
			}
		}
	}
	check(0)
	for step := 1; step <= epochs; step++ {
		fs.update(step, g, true)
		g.recomputeRoutes()
		check(float64(step) * epochSec)
	}
	if fs.Events == 0 {
		t.Error("no fault transition in four epochs; the clocks were never exercised")
	}
	return g
}

// TestEpochRebuildSeedsNewFaultClocks is the regression test for the
// immortal-link bug on a ring: every link and satellite draws a first
// fault clock at t = 0, and no clock goes dead across epoch boundaries.
func TestEpochRebuildSeedsNewFaultClocks(t *testing.T) {
	faultClocksAcrossEpochs(t, TopologySpec{Kind: ClusterTopology, Sats: 8, Cluster: isl.Ring, Tech: isl.RFKaBand})
}

// TestGEOStarEpochRebuildSeedsNewFaultClocks is the GEO-star twin of the
// ring test above, on optical uplinks so the eclipse sweep runs over the
// satellites. The sinks must keep their geo flag and never be eclipsed: a
// GEO sink swept by the LEO shadow arc would cut every uplink it
// terminates.
func TestGEOStarEpochRebuildSeedsNewFaultClocks(t *testing.T) {
	g := faultClocksAcrossEpochs(t, TopologySpec{Kind: GEOStarTopology, Sats: 9, GEOSinks: 3, Tech: isl.Optical10G})
	for _, s := range g.Sinks {
		if n := g.nodes[s]; !n.geo || n.eclipsed {
			t.Errorf("sink node %d: geo %v, eclipsed %v", s, n.geo, n.eclipsed)
		}
	}
	for _, s := range g.Sources {
		if g.nodes[s].geo {
			t.Errorf("satellite node %d carries the geo flag", s)
		}
	}
}

func TestFaultConfigStationaryFraction(t *testing.T) {
	fc := FaultConfig{LinkOutage: 0.2, LinkMTTRSec: 10}
	mtbf := fc.linkMTBF()
	// down/(up+down) = MTTR/(MTBF+MTTR) must equal the configured
	// fraction.
	frac := fc.LinkMTTRSec / (mtbf + fc.LinkMTTRSec)
	if diff := frac - fc.LinkOutage; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("stationary fraction %v, want %v", frac, fc.LinkOutage)
	}
}

func TestFaultConfigValidate(t *testing.T) {
	bad := []FaultConfig{
		{LinkOutage: -0.1},
		{LinkOutage: 1},
		{SatMTBFSec: -1},
		// Every parameter must be finite: a NaN clock never comes due.
		{LinkOutage: math.NaN()},
		{LinkOutage: 0.1, LinkMTTRSec: math.NaN()},
		{LinkOutage: 0.1, LinkMTTRSec: math.Inf(1)},
		{SatMTBFSec: math.NaN()},
		{SatMTBFSec: math.Inf(1)},
		{SatMTBFSec: 100, SatMTTRSec: math.NaN()},
		{SatMTBFSec: 100, SatMTTRSec: math.Inf(1)},
	}
	for i, fc := range bad {
		if fc.Validate() == nil {
			t.Errorf("bad fault config %d accepted", i)
		}
	}
}

// refEclipse runs the eclipse sweep that scanned every node, with the
// crossing bound that let it skip the steps before the earliest boundary
// crossing: the oracle for updateEclipse's edge-tracked arcs.
type refEclipse struct {
	*faultState
	nextEclipse float64
}

func (fs *refEclipse) refUpdateEclipse(t float64, g *Graph) bool {
	if t < fs.nextEclipse {
		return false
	}
	changed := false
	next := math.Inf(1)
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.geo || n.shell >= len(fs.eclipseFrac) {
			continue
		}
		frac, period := fs.eclipseFrac[n.shell], fs.periodSec[n.shell]
		if frac <= 0 {
			continue
		}
		phase := math.Mod(t/period+n.posFrac, 1)
		ecl := phase < frac
		if ecl != n.eclipsed {
			g.noteNode(i)
			n.eclipsed = ecl
			fs.Events++
			changed = true
		}
		boundary := 1.0
		if ecl {
			boundary = frac
		}
		if flip := t + (boundary-phase)*period; flip < next {
			next = flip
		}
	}
	fs.nextEclipse = next
	return changed
}

// eclipseSpec draws a topology from rng: a GEO star when shells is 0,
// else a stack of that many cluster shells, each of 2–5,000 satellites at
// 300–2,000 km with K and Split drawn from their valid ranges.
func eclipseSpec(rng *rand.Rand, shells int) TopologySpec {
	alt := func() float64 { return 300 + 1700*rng.Float64() }
	if shells == 0 {
		return TopologySpec{
			Kind: GEOStarTopology, Sats: 1 + rng.Intn(5000), GEOSinks: rng.Intn(4),
			LowAltKm: alt(), Tech: isl.Optical10G,
		}
	}
	ts := TopologySpec{Kind: ClusterTopology, Tech: isl.Optical10G}
	for i := range shells {
		sats := 2 + rng.Intn(4999)
		k := 2 * (1 + rng.Intn(min(sats/2, 8)))
		split := 1 + rng.Intn(sats/k)
		ts.Shells = append(ts.Shells, ShellSpec{Sats: sats, Cluster: isl.Topology{K: k, Split: split}, AltKm: alt()})
		if i > 0 {
			ts.InterShell = append(ts.InterShell, InterShellRule{Kind: InterShellKind(rng.Intn(2)), CrossLinks: rng.Intn(4)})
		}
	}
	return ts
}

// FuzzEclipseSweep steps updateEclipse and the full scan it replaced side
// by side over random GEO stars and 1–3-shell stacks, at steps from 0.01
// to 2,000 s starting anywhere in a run: every step, every node's eclipse
// flag, the event count, the returned change and the pending batch of
// noted links must match.
func FuzzEclipseSweep(f *testing.F) {
	f.Add(int64(1), uint8(1), 0.1, uint32(0))      // one shell at the mega-storm step
	f.Add(int64(2), uint8(3), 0.7, uint32(4000))   // three shells at a coarse step
	f.Add(int64(3), uint8(0), 30.0, uint32(0))     // a GEO star
	f.Add(int64(4), uint8(2), 2000.0, uint32(7))   // steps longer than the arc
	f.Add(int64(5), uint8(1), 0.01, uint32(1<<31)) // a fine step far into a run
	f.Fuzz(func(t *testing.T, seed int64, shells uint8, dt float64, start uint32) {
		if dt = math.Abs(dt); !(dt < math.MaxFloat64) {
			dt = 1
		}
		dt = 0.01 + math.Mod(dt, 2000)
		rng := rand.New(rand.NewSource(seed))
		ts := eclipseSpec(rng, int(shells%4))
		g, err := BuildGraph(ts)
		if err != nil {
			t.Fatalf("spec %+v: %v", ts, err)
		}
		ref, err := BuildGraph(ts)
		if err != nil {
			t.Fatal(err)
		}
		cfg := FaultConfig{EclipseOutage: true}
		fs := newFaultState(cfg, ts, g, seed, dt, 0)
		rfs := &refEclipse{faultState: newFaultState(cfg, ts, ref, seed, dt, 0)}
		last := int(start) + 40 + rng.Intn(200)
		for step := int(start) + 1; step <= last; step++ {
			now := float64(step) * dt
			changed := fs.updateEclipse(now, g)
			refChanged := rfs.refUpdateEclipse(now, ref)
			if changed != refChanged || fs.Events != rfs.Events ||
				!slices.Equal(g.notedIDs, ref.notedIDs) || !slices.Equal(g.notedWas, ref.notedWas) {
				t.Fatalf("step %d (t=%v): changed %v, %d events, noted %v; scan %v, %d, %v",
					step, now, changed, fs.Events, g.notedIDs, refChanged, rfs.Events, ref.notedIDs)
			}
			for i := range g.nodes {
				if g.nodes[i].eclipsed != ref.nodes[i].eclipsed {
					t.Fatalf("step %d (t=%v): node %d eclipsed %v, scan %v", step, now, i, g.nodes[i].eclipsed, ref.nodes[i].eclipsed)
				}
			}
			g.clearPending()
			ref.clearPending()
		}
	})
}
