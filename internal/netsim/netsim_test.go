package netsim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"spacedc/internal/isl"
	"spacedc/internal/units"
)

// ringScenario is the baseline test network: a fault-free ring of n EO
// satellites at 100 Mbit/s each feeding one SµDC over 1 Gbit/s ISLs.
func ringScenario(n int) Scenario {
	return Scenario{
		Name:     "test-ring",
		Topology: TopologySpec{Kind: ClusterTopology, Sats: n, Cluster: isl.Ring, Tech: isl.RFKaBand},
		PerSat:   100 * units.Mbps,
		// Short, fine-grained runs keep the suite fast.
		StepSec: 0.1, DurationSec: 60, WarmupSec: 10, Seed: 1,
	}
}

func TestZeroFaultRingDeliversEverything(t *testing.T) {
	r, err := Run(ringScenario(8))
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveryRatio < 0.99 || r.DeliveryRatio > 1.01 {
		t.Errorf("fault-free delivery ratio = %v, want ≈1", r.DeliveryRatio)
	}
	if r.LinkDrops != 0 || r.NoRouteDrops != 0 || r.Abandoned != 0 || r.Retransmits != 0 {
		t.Errorf("fault-free run lost data: %+v", r)
	}
	if r.LatencySec.Mean <= 0 {
		t.Error("delivered segments should have positive latency")
	}
	if r.DeliveredSegs == 0 {
		t.Fatal("nothing delivered")
	}
	// 8 sats × 100 Mbit/s offered.
	wantRate := 8 * 100e6
	if got := float64(r.DeliveredRate); math.Abs(got-wantRate)/wantRate > 0.05 {
		t.Errorf("delivered rate %v, want ≈%v", r.DeliveredRate, units.DataRate(wantRate))
	}
}

func TestBottleneckUtilizationMatchesFig11Shape(t *testing.T) {
	// Sweeping the population must trace the closed-form bottleneck
	// curve: the SµDC-adjacent link carries ⌈n/K⌉ satellites' traffic.
	prev := 0.0
	for _, n := range []int{4, 8, 12, 16} {
		sc := ringScenario(n)
		r, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		want := AnalyticBottleneckUtil(n, isl.Ring, sc.PerSat, sc.Topology.Tech.Capacity)
		if math.Abs(r.BottleneckUtil-want) > 0.1*want {
			t.Errorf("n=%d: bottleneck util %v, closed form %v", n, r.BottleneckUtil, want)
		}
		if r.BottleneckUtil < prev {
			t.Errorf("n=%d: bottleneck util %v decreased from %v", n, r.BottleneckUtil, prev)
		}
		prev = r.BottleneckUtil
		if r.BottleneckLink == "" {
			t.Error("bottleneck link unnamed")
		}
	}
}

func TestMaxSupportableMatchesTable8(t *testing.T) {
	// The dynamic simulator must agree with the closed-form Table 8 model
	// (and the static flow graph) within 10% for ring and k-list.
	for _, topo := range []isl.Topology{isl.Ring, {K: 4, Split: 1}} {
		sc := ringScenario(topo.K)
		sc.Topology.Cluster = topo
		closed := isl.SupportableEOSats(sc.Topology.Tech.Capacity, sc.PerSat, topo.K)
		got, err := MaxSupportable(sc, closed+4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(got-closed)) > 0.1*float64(closed) {
			t.Errorf("K=%d: simulated max %d, closed form %d (>10%% apart)", topo.K, got, closed)
		}
		static, err := isl.MaxSupportableBySimulation(topo, sc.PerSat, sc.Topology.Tech.Capacity, closed+4)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(got-static)) > 0.1*float64(static) {
			t.Errorf("K=%d: dynamic max %d, static flow graph %d (>10%% apart)", topo.K, got, static)
		}
	}
}

func TestOverloadedRingShowsLoss(t *testing.T) {
	sc := ringScenario(8)
	sc.PerSat = 300 * units.Mbps // chain load 4×300M = 1.2 Gbit/s > capacity
	sc.Transport.MaxAttempts = 1
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if Supported(r) {
		t.Errorf("overloaded ring reported stable: %+v", r)
	}
	if r.LinkDrops == 0 {
		t.Error("overload should overflow the bottleneck queue")
	}
	if r.BottleneckUtil < 0.95 {
		t.Errorf("overloaded bottleneck util %v, want ≈1", r.BottleneckUtil)
	}
}

func TestSplitClustersDoubleCapacity(t *testing.T) {
	// Fig 12b: splitting the SµDC doubles the supportable population.
	sc := ringScenario(2)
	mono := isl.SupportableEOSats(sc.Topology.Tech.Capacity, sc.PerSat, 2)
	sc.Topology.Cluster = isl.Topology{K: 2, Split: 2}
	got, err := MaxSupportable(sc, 2*mono+4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(got-2*mono)) > 0.1*float64(2*mono) {
		t.Errorf("split-2 max %d, want ≈%d", got, 2*mono)
	}
}

func TestGEOStarLatencyIncludesPropagation(t *testing.T) {
	sc := Scenario{
		Name:     "test-geo",
		Topology: TopologySpec{Kind: GEOStarTopology, Sats: 6, Tech: isl.Optical10G},
		PerSat:   100 * units.Mbps,
		StepSec:  0.1, DurationSec: 30, WarmupSec: 5, Seed: 1,
	}
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveryRatio < 0.99 {
		t.Errorf("GEO star delivery ratio %v, want ≈1", r.DeliveryRatio)
	}
	// LEO→GEO light time is ≈117 ms; every delivery pays it.
	if r.LatencySec.Mean < 0.1 {
		t.Errorf("GEO latency %v s too small to include the slant light-time", r.LatencySec.Mean)
	}
}

func TestDeterministicGivenSeed(t *testing.T) {
	sc := ringScenario(8)
	sc.Faults = FaultConfig{LinkOutage: 0.05, SatMTBFSec: 300}
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.DeliveredSegs != b.DeliveredSegs || a.LinkDrops != b.LinkDrops ||
		a.Retransmits != b.Retransmits || a.FaultEvents != b.FaultEvents ||
		a.LatencySec != b.LatencySec {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
	sc.Seed = 99
	c, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if c.FaultEvents == a.FaultEvents && c.DeliveredSegs == a.DeliveredSegs {
		t.Log("different seed produced identical run; suspicious but not fatal")
	}
}

// TestSeedReadOnlyByFaultClocks: only link outage and satellite failures
// draw from the seed, so a run without them returns the same Result under
// any seed, eclipse included.
func TestSeedReadOnlyByFaultClocks(t *testing.T) {
	for _, eclipse := range []bool{false, true} {
		sc := ringScenario(8)
		sc.Topology.Tech = isl.Optical10G
		sc.Faults.EclipseOutage = eclipse
		sc.Seed = 1
		a, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		sc.Seed = 99
		b, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
			t.Errorf("eclipse %v: seeds 1 and 99 differ:\n%+v\n%+v", eclipse, a, b)
		}
	}
}

func TestScenarioValidation(t *testing.T) {
	bad := []Scenario{
		{},                                 // no topology
		{Topology: TopologySpec{Sats: -1}}, // negative population
		ringScenarioBadRate(),              // zero rate
		ringScenarioBadWarmup(),            // warmup ≥ duration
		ringScenarioBadFaults(),            // outage fraction ≥ 1
		ringScenario(1 << 40),              // nodes above MaxDesignNodes
		ringWith(func(sc *Scenario) { // a stack shell above MaxDesignNodes
			sc.Topology = twoShellSpec(InterShellAligned)
			sc.Topology.Shells[1].Sats = 1 << 40
		}),
		ringWith(func(sc *Scenario) { // a stack whose node sum overflows
			sc.Topology = twoShellSpec(InterShellAligned)
			sc.Topology.Shells[0].Sats, sc.Topology.Shells[1].Sats = MaxDesignNodes-9, math.MaxInt
		}),
		ringWith(func(sc *Scenario) { sc.Topology.LowAltKm = math.NaN() }),
		ringWith(func(sc *Scenario) { // below ground, in eclipse
			sc.Topology.LowAltKm, sc.Topology.Tech = -100, isl.Optical10G
			sc.Faults.EclipseOutage = true
		}),
		ringWith(func(sc *Scenario) { sc.Topology.LowAltKm = 1e12 }),
		ringWith(func(sc *Scenario) { // GEO star above GEO
			sc.Topology.Kind, sc.Topology.LowAltKm = GEOStarTopology, 40000
		}),
		ringWith(func(sc *Scenario) { // inter-shell rules on one plane
			sc.Topology.InterShell = []InterShellRule{{}}
		}),
		ringWith(func(sc *Scenario) { // one-plane altitude on a stack
			sc.Topology = twoShellSpec(InterShellAligned)
			sc.Topology.LowAltKm = 550
		}),
		// Segment sizes must be whole numbers of bits in [1, 2^53).
		ringWith(func(sc *Scenario) { sc.SegmentBits = 1e6 + 0.5 }),
		ringWith(func(sc *Scenario) { sc.SegmentBits = 0.5 }),
		ringWith(func(sc *Scenario) { sc.SegmentBits = 1 << 53 }),
		ringWith(func(sc *Scenario) { sc.SegmentBits = math.NaN() }),
		ringWith(func(sc *Scenario) { sc.SegmentBits = math.Inf(1) }),
		// Rates and times must be finite.
		ringWith(func(sc *Scenario) { sc.PerSat = units.DataRate(math.Inf(1)) }),
		ringWith(func(sc *Scenario) { sc.PerSat = units.DataRate(math.NaN()) }),
		ringWith(func(sc *Scenario) { sc.StepSec = math.Inf(1) }),
		ringWith(func(sc *Scenario) { sc.EpochSec = math.NaN() }),
		ringWith(func(sc *Scenario) { sc.DurationSec = math.Inf(1) }),
		ringWith(func(sc *Scenario) { sc.WarmupSec = math.NaN() }),
		ringWith(func(sc *Scenario) { sc.WarmupSec = math.Inf(1) }),
		// Fault and transport parameters must be finite.
		ringWith(func(sc *Scenario) { sc.Faults.LinkOutage = math.NaN() }),
		ringWith(func(sc *Scenario) { sc.Faults.SatMTBFSec, sc.Faults.SatMTTRSec = 100, math.NaN() }),
		ringWith(func(sc *Scenario) { sc.Transport.RTOSec = math.NaN() }),
		ringWith(func(sc *Scenario) { sc.Transport.RTOSec = math.Inf(1) }),
		ringWith(func(sc *Scenario) { sc.Transport.Backoff = math.NaN() }),
		ringWith(func(sc *Scenario) { sc.Transport.Backoff = math.Inf(1) }),
		// Steps and epochs must stay under MaxSteps.
		ringWith(func(sc *Scenario) { sc.StepSec = 1e-9 }),
		ringWith(func(sc *Scenario) { sc.EpochSec = 1e-9 }),
		// Link budgets and queues must stay below 2^53 bits.
		ringWith(func(sc *Scenario) { sc.Topology.Tech.Capacity = 1e17 }),
		ringWith(func(sc *Scenario) { sc.Topology.Tech.Capacity = units.DataRate(math.NaN()) }),
		ringWith(func(sc *Scenario) { sc.Topology.QueueSec = math.NaN() }),
		ringWith(func(sc *Scenario) { sc.Topology.QueueSec = 1e8 }),
	}
	for i, sc := range bad {
		if _, err := Run(sc); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
	// Over-cap loads are the design's fault: a *DesignError, which a
	// design search scores infeasible.
	for name, sc := range map[string]Scenario{
		"1e12 Mbit/s per satellite": ringWith(func(sc *Scenario) { sc.PerSat = 1e12 * units.Mbps }),
		"rate overflowing to +Inf":  ringWith(func(sc *Scenario) { sc.PerSat = 1e302 * units.Mbps }),
		"one-bit segments": ringWith(func(sc *Scenario) {
			sc.SegmentBits = 1 // 4 × 1e8 bit/s × 60 s = 2.4e10 segments
		}),
		"credit reaching 2^53": ringWith(func(sc *Scenario) {
			sc.SegmentBits, sc.PerSat = 1<<52, 1<<53/0.1
		}),
		"one past the segment cap": atSegmentCap(1),
	} {
		var de *DesignError
		if _, err := Run(sc); !errors.As(err, &de) || de.Field != "load" {
			t.Errorf("%s: error %v, want a load *DesignError", name, err)
		}
	}
	// A fault regime expected to flip its clocks more than MaxFaultFlips
	// times is the design's too: a tiny finite mean time would hold the run
	// for about StepSec/mean draws a step.
	for name, sc := range map[string]Scenario{
		"link MTTR 1e-300 s": ringWith(func(sc *Scenario) { sc.Faults.LinkOutage, sc.Faults.LinkMTTRSec = 0.1, 1e-300 }),
		"subnormal link MTTR": ringWith(func(sc *Scenario) {
			sc.Faults.LinkOutage, sc.Faults.LinkMTTRSec = 0.1, math.SmallestNonzeroFloat64
		}),
		"satellite MTBF and MTTR 1e-300 s": ringWith(func(sc *Scenario) {
			sc.Faults.SatMTBFSec, sc.Faults.SatMTTRSec = 1e-300, 1e-300
		}),
		"0.1% past the flip cap": atFlipCap(1.001),
		"a 20,000-satellite ring at a 0.1 s link MTTR": ringWith(func(sc *Scenario) {
			sc.Topology.Sats, sc.PerSat = 20000, units.Mbps
			sc.Faults.LinkOutage, sc.Faults.LinkMTTRSec = 0.5, 0.1
		}),
		"a GEO star's satellites at 1 µs means": ringWith(func(sc *Scenario) {
			sc.Topology.Kind, sc.Faults.SatMTBFSec, sc.Faults.SatMTTRSec = GEOStarTopology, 1e-6, 1e-6
		}),
	} {
		var de *DesignError
		if _, err := Run(sc); !errors.As(err, &de) || de.Field != "faults" {
			t.Errorf("%s: error %v, want a faults *DesignError", name, err)
		}
	}
	// A 2^52-bit segment and the caps themselves are accepted.
	for name, sc := range map[string]Scenario{
		"2^52-bit segments":       ringWith(func(sc *Scenario) { sc.SegmentBits = 1 << 52 }),
		"exactly the segment cap": atSegmentCap(0),
		"exactly the step cap":    ringWith(func(sc *Scenario) { sc.StepSec = sc.DurationSec / MaxSteps }),
		"exactly the epoch cap":   ringWith(func(sc *Scenario) { sc.EpochSec = sc.DurationSec / MaxSteps }),
	} {
		if err := sc.withDefaults().Validate(); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
}

// atSegmentCap returns a four-satellite ring offering exactly
// MaxOfferedSegments megabit segments over 0.25 s, with its rate raised by
// ulps ulps.
func atSegmentCap(ulps int) Scenario {
	return ringWith(func(sc *Scenario) {
		rate := float64(MaxOfferedSegments) * 1e6 // 4 sats × 0.25 s = 1
		for range ulps {
			rate = math.Nextafter(rate, math.Inf(1))
		}
		sc.PerSat, sc.SegmentBits = units.DataRate(rate), 1e6
		sc.DurationSec, sc.WarmupSec = 0.25, 0.1
	})
}

// atFlipCap returns a four-satellite ring whose link clocks are expected
// to flip scale × MaxFaultFlips times.
func atFlipCap(scale float64) Scenario {
	return ringWith(func(sc *Scenario) {
		g, err := BuildGraph(sc.Topology)
		if err != nil {
			panic(err)
		}
		sc.Faults.LinkOutage = 0.5
		sc.Faults.LinkMTTRSec = float64(len(g.Links)) * 2 * sc.DurationSec * sc.Faults.LinkOutage / (scale * MaxFaultFlips)
	})
}

// ringWith returns ringScenario(4) with edit applied.
func ringWith(edit func(*Scenario)) Scenario {
	sc := ringScenario(4)
	edit(&sc)
	return sc
}

func ringScenarioBadRate() Scenario {
	sc := ringScenario(4)
	sc.PerSat = 0
	return sc
}

func ringScenarioBadWarmup() Scenario {
	sc := ringScenario(4)
	sc.WarmupSec = sc.DurationSec
	return sc
}

func ringScenarioBadFaults() Scenario {
	sc := ringScenario(4)
	sc.Faults.LinkOutage = 1
	return sc
}

func TestMaxSupportableRejectsTinyLimit(t *testing.T) {
	sc := ringScenario(4)
	if _, err := MaxSupportable(sc, 1); err == nil {
		t.Error("limit below minimum population accepted")
	}
}
