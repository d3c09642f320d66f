package netsim

import (
	"reflect"
	"testing"

	"spacedc/internal/isl"
	"spacedc/internal/obs"
)

// heavyFaultScenario exercises every nondeterminism-prone code path at
// once: link outages (retransmission timers firing in bulk), satellite
// churn (queue purges, reroutes), the eclipse sweep over optical links,
// and epoch boundaries forcing full route recomputes.
func heavyFaultScenario() Scenario {
	sc := ringScenario(8)
	sc.Name = "test-determinism"
	sc.Topology.Tech = isl.Optical10G
	sc.Faults = FaultConfig{
		LinkOutage:    0.2,
		LinkMTTRSec:   5,
		SatMTBFSec:    60,
		SatMTTRSec:    30,
		EclipseOutage: true,
	}
	sc.DurationSec = 120
	sc.WarmupSec = 20
	sc.EpochSec = 30 // several full recomputes per run
	sc.Seed = 42
	return sc
}

// TestRunBitIdenticalAcrossRepeats is the regression test for the
// transport expire path: iterating the outstanding-segment map directly
// made the retransmission order follow Go's randomized map order, so a
// fault-heavy run produced a different Result on every execution. The
// sorted-expiry fix makes every repetition bit-identical.
func TestRunBitIdenticalAcrossRepeats(t *testing.T) {
	sc := heavyFaultScenario()
	first, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if first.Retransmits == 0 || first.FaultEvents == 0 {
		t.Fatalf("scenario not fault-heavy enough to exercise the expire path: %+v", first)
	}
	for i := 1; i < 10; i++ {
		r, err := Run(sc)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, r) {
			t.Fatalf("run %d diverged from run 0:\nfirst: %+v\n  got: %+v", i, first, r)
		}
	}
}

// TestSweepBitIdenticalAcrossWorkerCounts asserts each scenario's result
// is independent of how the worker pool schedules it (run under -race in
// tier-1).
func TestSweepBitIdenticalAcrossWorkerCounts(t *testing.T) {
	base := heavyFaultScenario()
	var scenarios []Scenario
	for i := 0; i < 6; i++ {
		sc := base
		sc.Seed = int64(i + 1)
		scenarios = append(scenarios, sc)
	}
	serial := Sweep(scenarios, 1)
	parallel := Sweep(scenarios, 8)
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("scenario %d errored: %v / %v", i, serial[i].Err, parallel[i].Err)
		}
		if !reflect.DeepEqual(serial[i].Result, parallel[i].Result) {
			t.Errorf("scenario %d: workers=1 and workers=8 disagree:\n1: %+v\n8: %+v",
				i, serial[i].Result, parallel[i].Result)
		}
	}
}

// TestObsCountersMirrorResult asserts (1) an instrumented run is
// bit-identical to a bare one (observability is write-only) and (2) the
// registry's counters equal the Result fields they mirror.
func TestObsCountersMirrorResult(t *testing.T) {
	sc := heavyFaultScenario()
	bare, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	sc.Obs = obs.New()
	instr, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, instr) {
		t.Fatalf("instrumented run diverged from bare run:\nbare:  %+v\ninstr: %+v", bare, instr)
	}
	counters := map[string]int64{}
	for _, c := range sc.Obs.Snapshot().Counters {
		counters[c.Name] = c.Value
	}
	want := map[string]int{
		"netsim.delivered_segs":   instr.DeliveredSegs,
		"netsim.duplicates":       instr.Duplicates,
		"netsim.retransmits":      instr.Retransmits,
		"netsim.abandoned":        instr.Abandoned,
		"netsim.noroute_drops":    instr.NoRouteDrops,
		"netsim.link_drops":       instr.LinkDrops,
		"netsim.fault_events":     instr.FaultEvents,
		"netsim.route_recomputes": instr.RouteRecomputes,
		"netsim.route_repairs":    instr.RouteRepairs,
		"netsim.late_abandoned":   instr.LateAbandoned,
	}
	for name, v := range want {
		if counters[name] != int64(v) {
			t.Errorf("%s = %d, want %d (Result field)", name, counters[name], v)
		}
	}
}
