package netsim

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"spacedc/internal/isl"
	"spacedc/internal/units"
)

// twoShellSpec is the reference 2-shell stack for the structure tests:
// a 9-sat ring at 550 km under a 6-sat ring at 800 km, index-aligned
// cross-links at the default one-pair-per-satellite budget.
func twoShellSpec(kind InterShellKind) TopologySpec {
	return TopologySpec{
		Kind: ClusterTopology, Tech: isl.Optical10G, QueueSec: 1,
		Shells: []ShellSpec{
			{Sats: 9, Cluster: isl.Ring, AltKm: 550},
			{Sats: 6, Cluster: isl.Ring, AltKm: 800},
		},
		InterShell: []InterShellRule{{Kind: kind}},
	}
}

// TestMultiShellGraphStructure pins the multi-shell builder's wiring: node
// population, per-shell sinks and sources, cross-link count, and the
// altitude-derived cross-link latency and capacity derate.
func TestMultiShellGraphStructure(t *testing.T) {
	g, err := BuildGraph(twoShellSpec(InterShellAligned))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(g.nodes), (9+1)+(6+1); got != want {
		t.Errorf("nodes = %d, want %d", got, want)
	}
	if got, want := len(g.Sinks), 2; got != want {
		t.Errorf("sinks = %d, want %d", got, want)
	}
	if got, want := len(g.Sources), 15; got != want {
		t.Errorf("sources = %d, want %d", got, want)
	}
	// Default budget: one pair per satellite of the smaller shell (6), two
	// directed links per pair.
	if got, want := g.CrossShellLinks(), 2*6; got != want {
		t.Errorf("CrossShellLinks = %d, want %d", got, want)
	}
	wantDelay := 250.0 / lightSpeedKmS
	wantCap := float64(isl.Optical10G.Capacity) * interShellRefKm / (interShellRefKm + 250)
	for _, l := range g.Links {
		sameShell := g.nodes[l.From].shell == g.nodes[l.To].shell
		if sameShell {
			if l.CapacityBps != float64(isl.Optical10G.Capacity) {
				t.Fatalf("intra-shell link %d→%d capacity %v, want full %v", l.From, l.To, l.CapacityBps, float64(isl.Optical10G.Capacity))
			}
			continue
		}
		if math.Abs(l.DelaySec-wantDelay) > 1e-15 {
			t.Errorf("cross link %d→%d delay %v, want %v (250 km / c)", l.From, l.To, l.DelaySec, wantDelay)
		}
		if math.Abs(l.CapacityBps-wantCap) > 1e-6 {
			t.Errorf("cross link %d→%d capacity %v, want derated %v", l.From, l.To, l.CapacityBps, wantCap)
		}
	}
	// Routing must reach every source from the sinks across both shells.
	g.recomputeRoutes()
	for _, s := range g.Sources {
		if g.next[s] < 0 {
			t.Errorf("source %d unroutable in the multi-shell graph", s)
		}
	}
}

// TestNearestCrossLinksPickClosestPhase asserts the nearest rule's
// geometric contract: every cross-link partner is at minimal circular
// phase distance among the far shell's satellites.
func TestNearestCrossLinksPickClosestPhase(t *testing.T) {
	g, err := BuildGraph(twoShellSpec(InterShellNearest))
	if err != nil {
		t.Fatal(err)
	}
	circ := func(a, b float64) float64 {
		d := math.Abs(a - b)
		if d > 0.5 {
			d = 1 - d
		}
		return d
	}
	// Collect the upper shell's satellite phases.
	var hiPhases []float64
	for _, s := range g.Sources {
		if g.nodes[s].shell == 1 {
			hiPhases = append(hiPhases, g.nodes[s].posFrac)
		}
	}
	checked := 0
	for _, l := range g.Links {
		if g.nodes[l.From].shell != 0 || g.nodes[l.To].shell != 1 {
			continue
		}
		got := circ(g.nodes[l.From].posFrac, g.nodes[l.To].posFrac)
		for _, p := range hiPhases {
			if circ(g.nodes[l.From].posFrac, p) < got-1e-12 {
				t.Errorf("cross link %d→%d skipped a closer partner (dist %v vs %v)",
					l.From, l.To, circ(g.nodes[l.From].posFrac, p), got)
			}
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no upward cross links found")
	}
}

// TestSingleShellStackMatchesLegacyPath asserts the subset promise: a
// 1-shell stack runs bit-identically to the same plane through the legacy
// single-shell spec, faults, eclipse sweep and all.
func TestSingleShellStackMatchesLegacyPath(t *testing.T) {
	legacy := Scenario{
		Name: "legacy",
		Topology: TopologySpec{
			Kind: ClusterTopology, Sats: 12, Cluster: isl.Topology{K: 4, Split: 1},
			Tech: isl.Optical10G, LowAltKm: 700,
		},
		PerSat:      800 * units.Mbps,
		SegmentBits: 1e6,
		StepSec:     0.1,
		EpochSec:    20,
		DurationSec: 60,
		WarmupSec:   10,
		Faults:      FaultConfig{LinkOutage: 0.05, LinkMTTRSec: 20, EclipseOutage: true},
		Seed:        11,
	}
	stacked := legacy
	stacked.Name = "legacy"
	stacked.Topology = TopologySpec{
		Kind: ClusterTopology, Tech: isl.Optical10G,
		Shells: []ShellSpec{{Sats: 12, Cluster: isl.Topology{K: 4, Split: 1}, AltKm: 700}},
	}
	a, err := Run(legacy)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(stacked)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("1-shell stack diverged from the legacy single-shell path:\nlegacy:  %+v\nstacked: %+v", a, b)
	}
}

// TestSameAltitudeShellsMatchDisjointPlanes is the scaling identity behind
// the optimizer's DeliveredRate × Planes objective: P equal shells at the
// same altitude, index-aligned, behave exactly like P disconnected copies
// of the single plane — cross links join equal-distance nodes, so the
// canonical router never takes them, and under zero faults every per-plane
// quantity multiplies exactly.
func TestSameAltitudeShellsMatchDisjointPlanes(t *testing.T) {
	const planes = 3
	single := Scenario{
		Name: "plane",
		Topology: TopologySpec{
			Kind: ClusterTopology, Sats: 8, Cluster: isl.Ring,
			Tech: isl.Optical10G, LowAltKm: 650,
		},
		PerSat:      units.Gbps,
		SegmentBits: 1e6,
		StepSec:     0.1,
		EpochSec:    15,
		DurationSec: 40,
		WarmupSec:   5,
		Seed:        5,
	}
	multi := single
	multi.Topology = TopologySpec{Kind: ClusterTopology, Tech: isl.Optical10G}
	for i := 0; i < planes; i++ {
		multi.Topology.Shells = append(multi.Topology.Shells,
			ShellSpec{Sats: 8, Cluster: isl.Ring, AltKm: 650})
		if i > 0 {
			multi.Topology.InterShell = append(multi.Topology.InterShell,
				InterShellRule{Kind: InterShellAligned})
		}
	}
	one, err := Run(single)
	if err != nil {
		t.Fatal(err)
	}
	all, err := Run(multi)
	if err != nil {
		t.Fatal(err)
	}
	if all.DeliveredSegs != planes*one.DeliveredSegs {
		t.Errorf("DeliveredSegs = %d, want exactly %d× the single plane's %d",
			all.DeliveredSegs, planes, one.DeliveredSegs)
	}
	if all.OfferedSegs != planes*one.OfferedSegs {
		t.Errorf("OfferedSegs = %d, want exactly %d× the single plane's %d",
			all.OfferedSegs, planes, one.OfferedSegs)
	}
	scaled := float64(one.DeliveredRate) * planes
	if rel := math.Abs(float64(all.DeliveredRate)-scaled) / scaled; rel > 1e-12 {
		t.Errorf("DeliveredRate = %v, want %v (%d× single plane), rel err %g",
			all.DeliveredRate, scaled, planes, rel)
	}
}

// TestMultiShellEclipsePerShell asserts each shell gets its own eclipse
// geometry: different altitudes mean different orbital periods and shadow
// fractions in the fault layer.
func TestMultiShellEclipsePerShell(t *testing.T) {
	ts := twoShellSpec(InterShellAligned)
	g, err := BuildGraph(ts)
	if err != nil {
		t.Fatal(err)
	}
	fs := newFaultState(FaultConfig{EclipseOutage: true}, ts, g, 0, 1, 0)
	if len(fs.eclipseFrac) != 2 || len(fs.periodSec) != 2 {
		t.Fatalf("per-shell eclipse tables have %d/%d entries, want 2/2", len(fs.eclipseFrac), len(fs.periodSec))
	}
	if fs.periodSec[0] >= fs.periodSec[1] {
		t.Errorf("orbital periods %v not increasing with altitude", fs.periodSec)
	}
	f0, p0 := eclipseFractionAt(550)
	if fs.eclipseFrac[0] != f0 || fs.periodSec[0] != p0 {
		t.Errorf("shell 0 eclipse geometry %v/%v diverges from eclipseFractionAt(550) = %v/%v",
			fs.eclipseFrac[0], fs.periodSec[0], f0, p0)
	}
}

// TestMultiShellRunBitIdentityIncrementalVsFull extends the end-to-end
// repair guarantee across shell boundaries: a fault-heavy 3-shell run on
// the incremental path must be byte-identical to the full-BFS path.
func TestMultiShellRunBitIdentityIncrementalVsFull(t *testing.T) {
	sc := Scenario{
		Name: "3shell-storm",
		Topology: TopologySpec{
			Kind: ClusterTopology, Tech: isl.Optical10G,
			Shells: []ShellSpec{
				{Sats: 12, Cluster: isl.Topology{K: 4, Split: 2}, AltKm: 550},
				{Sats: 9, Cluster: isl.Ring, AltKm: 800},
				{Sats: 6, Cluster: isl.Ring, AltKm: 1100},
			},
			InterShell: []InterShellRule{
				{Kind: InterShellNearest},
				{Kind: InterShellAligned, CrossLinks: 3},
			},
		},
		PerSat:      500 * units.Mbps,
		SegmentBits: 1e6,
		StepSec:     0.1,
		EpochSec:    20,
		DurationSec: 60,
		WarmupSec:   10,
		Faults: FaultConfig{
			LinkOutage: 0.1, LinkMTTRSec: 10,
			SatMTBFSec: 120, SatMTTRSec: 30,
			EclipseOutage: true,
		},
		Seed: 9,
	}
	inc, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if inc.RouteRepairs == 0 {
		t.Fatal("multi-shell fault storm exercised no incremental repairs")
	}
	full := sc
	full.fullRecompute = true
	ref, err := Run(full)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(inc, ref) {
		t.Fatalf("multi-shell incremental and full-BFS runs diverged:\nincremental: %+v\nfull:        %+v", inc, ref)
	}
}

// FuzzDesignTopology throws arbitrary shell stacks — adversarial counts,
// non-finite altitudes, degenerate K/split combos, hostile inter-shell
// kinds and budgets — at the design construction paths and, built
// directly from the same inputs, at the raw one-plane, GEO and stack
// specs that only Validate guards. The contract: a design path either
// returns a typed *DesignError or a spec that passes Validate; a raw spec
// either fails Validate or stays within MaxDesignNodes; and any accepted
// spec small enough to build produces finite, non-negative links and a
// routable graph. Never a panic.
func FuzzDesignTopology(f *testing.F) {
	f.Add(2, 9, 6, 4, 550.0, 800.0, 1100.0, 2, 1, 0, 0)
	f.Add(3, 16, 12, 8, 550.0, 800.0, 1050.0, 4, 2, 1, 3)
	f.Add(1, 8, 0, 0, math.NaN(), 0.0, -1.0, 2, 1, 0, 0)
	f.Add(2, 8, 8, 8, math.Inf(1), math.Inf(-1), 1e308, 2, 1, 2, -5)
	f.Add(3, 1<<30, 1<<30, 1<<30, 550.0, 550.0, 550.0, 2, 1, 0, 0)
	f.Add(2, 10, 10, 10, 0.0, 100001.0, 550.0, 6, 1, 1, 11)
	f.Add(2, 24, 24, 0, 550.0, 550.0, 0.0, 1<<40, 1<<40, 0, 0)
	f.Add(2, 16, 12, 8, math.NaN(), math.NaN(), 550.0, 4, 1, 3, 0)
	f.Add(2, 16, 12, 8, -100.0, -100.0, 550.0, 2, 1, 3, 0)
	f.Add(2, 16, 12, 8, 1e12, 1e12, 550.0, 2, 1, 3, 0)
	f.Add(2, 1<<40, 1<<40, 8, 550.0, 800.0, 1100.0, 2, 1, 3, 0)
	f.Fuzz(func(t *testing.T, nShells, sats0, sats1, sats2 int, alt0, alt1, alt2 float64, k, split, interKind, crossLinks int) {
		n := nShells % 4
		if n < 0 {
			n = -n
		}
		sats := []int{sats0, sats1, sats2}
		alts := []float64{alt0, alt1, alt2}
		var shells []ShellSpec
		var rules []InterShellRule
		for i := 0; i < n; i++ {
			shells = append(shells, ShellSpec{Sats: sats[i], Cluster: isl.Topology{K: k, Split: split}, AltKm: alts[i]})
			if i > 0 {
				rules = append(rules, InterShellRule{Kind: InterShellKind(interKind), CrossLinks: crossLinks})
			}
		}
		ts, err := DesignShells(shells, InterShellKind(interKind), crossLinks, isl.Optical10G)
		if err != nil {
			var de *DesignError
			if !errors.As(err, &de) {
				t.Fatalf("DesignShells rejected with an untyped error: %v", err)
			}
		} else {
			checkBuildable(t, ts)
		}

		// The single-shell construction path honors the same contract;
		// interKind doubles as a hostile geoSinks value here.
		planes := 1 + n
		ts, err = DesignTopology(planes, sats0, alt0, k, split, interKind, isl.Optical10G)
		if err != nil {
			var de *DesignError
			if !errors.As(err, &de) {
				t.Fatalf("DesignTopology rejected with an untyped error: %v", err)
			}
		} else {
			checkBuildable(t, ts)
		}

		for _, raw := range []TopologySpec{
			{Sats: sats0, Cluster: isl.Topology{K: k, Split: split}, Tech: isl.Optical10G, LowAltKm: alt0},
			{Kind: GEOStarTopology, Sats: sats0, GEOSinks: interKind, Tech: isl.Optical10G, LowAltKm: alt0},
			{Tech: isl.Optical10G, Shells: shells, InterShell: rules},
		} {
			if raw.Validate() == nil {
				checkGraph(t, raw)
			}
		}
	})
}

// checkBuildable asserts an accepted design spec validates and builds a
// sound graph.
func checkBuildable(t *testing.T, ts TopologySpec) {
	t.Helper()
	if err := ts.Validate(); err != nil {
		t.Fatalf("accepted design fails Validate: %v (spec %+v)", err, ts)
	}
	checkGraph(t, ts)
}

// checkGraph asserts a spec that passed Validate stays within
// MaxDesignNodes and — when small enough to instantiate in a fuzz
// iteration — builds a graph whose link delays and capacities are finite
// and non-negative and whose routing table derives without panicking.
func checkGraph(t *testing.T, ts TopologySpec) {
	t.Helper()
	// Counted in floats, so a count that slipped past Validate cannot
	// overflow its way under the ceiling here.
	nodes := 0.0
	if len(ts.Shells) == 0 {
		sinks := ts.Cluster.Split
		if ts.Kind == GEOStarTopology {
			sinks = ts.GEOSinks
			if sinks == 0 {
				sinks = 3
			}
			sinks = min(sinks, ts.Sats)
		}
		nodes = float64(ts.Sats) + float64(sinks)
	}
	for _, sh := range ts.Shells {
		nodes += float64(sh.Sats) + float64(sh.Cluster.Split)
	}
	if nodes > MaxDesignNodes {
		t.Fatalf("spec with %v nodes passes Validate above the %d-node ceiling (spec %+v)", nodes, MaxDesignNodes, ts)
	}
	if nodes > 20000 {
		return
	}
	g, err := BuildGraph(ts)
	if err != nil {
		t.Fatalf("valid spec fails BuildGraph: %v (spec %+v)", err, ts)
	}
	for _, l := range g.Links {
		if !(l.DelaySec >= 0) || math.IsInf(l.DelaySec, 1) || !(l.CapacityBps >= 0) || math.IsInf(l.CapacityBps, 1) {
			t.Fatalf("link %d→%d has delay %v s, capacity %v bit/s (spec %+v)", l.From, l.To, l.DelaySec, l.CapacityBps, ts)
		}
	}
	g.recomputeRoutes()
	for _, s := range g.Sinks {
		if g.dist[s] != 0 {
			t.Fatalf("sink %d at distance %d after recompute", s, g.dist[s])
		}
	}
}
