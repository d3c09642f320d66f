package qos

import (
	"reflect"
	"testing"

	"spacedc/internal/discard"
	"spacedc/internal/obs"
	"spacedc/internal/resilience"
	"spacedc/internal/workload"
)

// fpsProc is a synthetic device: a fixed frame rate and energy per frame.
type fpsProc struct{ fps, jPerFrame float64 }

func (p fpsProc) Process(frames int, pixels float64) (float64, float64) {
	return float64(frames) / p.fps, p.jPerFrame * float64(frames)
}

// testScenario is a pipeline sized for ~100 req/s of the default class mix
// (mean 70.5 Mbit and 2.85 frames per request): the network saturates at
// 7.05 Gbit/s and the device at 400 frames/s.
func testScenario(policy Policy) Scenario {
	return Scenario{
		Name: "test",
		Workload: workload.Spec{
			BaseRatePerSec: 50,
			DurationSec:    120,
			Seed:           7,
		},
		Network: NetworkConfig{CapacityBps: 7.05e9, BaseLatencySec: 0.1},
		Compute: ComputeConfig{
			Proc:        fpsProc{fps: 400, jPerFrame: 1},
			TargetBatch: 16,
			MaxWaitSec:  1,
		},
		Policy: policy,
		Seed:   11,
	}
}

func TestEngineUnderload(t *testing.T) {
	res, err := Run(testScenario(Policy{Name: "open"}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered < 5000 {
		t.Fatalf("offered %d requests, expected ≈6000", res.Offered)
	}
	if res.Shed > 0 || res.Failed > 0 {
		t.Fatalf("underloaded run shed %d / failed %d", res.Shed, res.Failed)
	}
	done := res.Completed
	inFlight := 0
	for _, c := range res.Classes {
		inFlight += c.InFlight
		if c.Offered == 0 {
			continue
		}
		if c.SLOAttainment < 0.95 {
			t.Errorf("class %s SLO attainment %.3f under light load", c.Name, c.SLOAttainment)
		}
		if c.P99LatencySec > 10 {
			t.Errorf("class %s p99 %.2f s under light load", c.Name, c.P99LatencySec)
		}
	}
	if done+inFlight != res.Offered {
		t.Errorf("accounting leak: %d completed + %d in flight ≠ %d offered", done, inFlight, res.Offered)
	}
	if res.Batches == 0 || res.EnergyJ == 0 {
		t.Error("no batches executed")
	}
}

func TestEngineDeterministic(t *testing.T) {
	sc := testScenario(mustPreset(t, PolicyPriorityRetry, 100))
	sc.Workload.BurstOnsets = []float64{40}
	sc.Workload.BurstPeakPerSec = 120
	sc.Campaign = mustCampaign(t, CampaignGroundOutage, 50, 20)
	a, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated runs differ:\n%+v\nvs\n%+v", a, b)
	}
}

func TestEngineObsDoesNotPerturb(t *testing.T) {
	sc := testScenario(mustPreset(t, PolicyPriority, 100))
	sc.Workload.BurstOnsets = []float64{40}
	sc.Workload.BurstPeakPerSec = 120
	sc.Governor = testGovernor()
	sc.Campaign = mustCampaign(t, CampaignCombined, 50, 20)
	bare, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	sc.Obs = reg
	instrumented, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare, instrumented) {
		t.Fatalf("observability perturbed the run:\n%+v\nvs\n%+v", bare, instrumented)
	}
	snap := reg.Snapshot()
	if len(snap.Counters) == 0 || len(snap.Histograms) == 0 {
		t.Error("instrumented run recorded no metrics")
	}
}

// testGovernor builds a governor whose radiator exactly matches the test
// device's dissipation (400 W at full tilt), so it only derates when a
// campaign halves its capacity.
func testGovernor() *resilience.Governor {
	return &resilience.Governor{
		CapacityW: 400,
		PeakW:     400,
		HeadroomJ: 10e3,
		Shed:      discard.Criterion{Name: "qos-test", Rate: 0.5},
	}
}

func mustPreset(t *testing.T, name string, cap float64) Policy {
	t.Helper()
	p, err := PresetPolicy(name, cap)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mustCampaign(t *testing.T, name string, start, dur float64) []Fault {
	t.Helper()
	c, err := PresetCampaign(name, start, dur)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGracefulDegradation is the flagship acceptance test: a disaster
// surge pushes offered load to ~2.3× the admission capacity, a
// ground-station outage lands mid-surge, and the priority policy must hold
// the urgent class's p99 inside its 30 s SLO by shedding best-effort load
// — then recover to the pre-fault backlog once the outage clears. The open
// baseline run shows what the policy buys: urgent attainment collapses
// when nothing protects it.
func TestGracefulDegradation(t *testing.T) {
	surge := func(policy Policy) Scenario {
		sc := testScenario(policy)
		sc.Workload.BaseRatePerSec = 80
		sc.Workload.DurationSec = 480
		sc.Workload.BurstOnsets = []float64{120}
		sc.Workload.BurstPeakPerSec = 150
		sc.Workload.BurstDecaySec = 90
		sc.Campaign = mustCampaign(t, CampaignGroundOutage, 150, 30)
		return sc
	}

	prio, err := Run(surge(mustPreset(t, PolicyPriorityRetry, 100)))
	if err != nil {
		t.Fatal(err)
	}
	open, err := Run(surge(mustPreset(t, PolicyOpen, 100)))
	if err != nil {
		t.Fatal(err)
	}

	urgent, bestEffort := prio.Classes[0], prio.Classes[2]
	if urgent.P99LatencySec > 30 {
		t.Errorf("urgent p99 %.2f s blew the 30 s SLO under the priority policy", urgent.P99LatencySec)
	}
	if urgent.SLOAttainment < 0.9 {
		t.Errorf("urgent SLO attainment %.3f under the priority policy, want ≥ 0.9", urgent.SLOAttainment)
	}
	if bestEffort.ShedFraction < 0.1 {
		t.Errorf("best-effort shed fraction %.3f — the overload was not absorbed by the sacrificial class", bestEffort.ShedFraction)
	}
	if bestEffort.ShedFraction <= urgent.ShedFraction {
		t.Errorf("shed ordering inverted: best-effort %.3f ≤ urgent %.3f", bestEffort.ShedFraction, urgent.ShedFraction)
	}
	if prio.RecoverySec < 0 {
		t.Error("backlog never recovered to baseline after the outage cleared")
	}
	if prio.RecoverySec > 180 {
		t.Errorf("recovery took %.1f s — not graceful", prio.RecoverySec)
	}

	// The open baseline demonstrates the contrast: with no admission or
	// priority protection the urgent class does measurably worse.
	openUrgent := open.Classes[0]
	if openUrgent.SLOAttainment >= urgent.SLOAttainment {
		t.Errorf("open-policy urgent attainment %.3f ≥ priority %.3f — the policy bought nothing",
			openUrgent.SLOAttainment, urgent.SLOAttainment)
	}
}

// TestEngineDegradationController verifies the degradation loop: a
// radiator derate mid-run must tighten admission (sheds rise) relative to
// the same run without the campaign, and the governor's transition
// counters must surface on the run's registry.
func TestEngineDegradationController(t *testing.T) {
	base := func() Scenario {
		sc := testScenario(mustPreset(t, PolicyPriority, 100))
		sc.Workload.BaseRatePerSec = 90
		sc.Workload.DurationSec = 240
		sc.Governor = testGovernor()
		return sc
	}

	calm, err := Run(base())
	if err != nil {
		t.Fatal(err)
	}
	sc := base()
	sc.Campaign = mustCampaign(t, CampaignRadiatorDerate, 60, 120)
	reg := obs.New()
	sc.Obs = reg
	stressed, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}

	if stressed.Shed <= calm.Shed {
		t.Errorf("radiator derate did not tighten admission: %d sheds vs %d calm", stressed.Shed, calm.Shed)
	}
	if stressed.ThrottleSec == 0 {
		t.Error("derated governor never throttled the device")
	}
	snap := reg.Snapshot()
	derates := int64(0)
	for _, c := range snap.Counters {
		if c.Name == "resilience.governor.derate_transitions" {
			derates = c.Value
		}
	}
	if derates == 0 {
		t.Error("governor transition counters did not surface on the external registry")
	}
}

// TestEngineSEURetry: an SEU burst corrupts batches; with retry the
// affected requests are re-executed, without it they fail outright.
func TestEngineSEURetry(t *testing.T) {
	mk := func(policy Policy) Scenario {
		sc := testScenario(policy)
		sc.Campaign = mustCampaign(t, CampaignSEUBurst, 30, 60)
		return sc
	}
	noRetry, err := Run(mk(mustPreset(t, PolicyPriority, 100)))
	if err != nil {
		t.Fatal(err)
	}
	withRetry, err := Run(mk(mustPreset(t, PolicyPriorityRetry, 100)))
	if err != nil {
		t.Fatal(err)
	}
	if noRetry.Upsets == 0 {
		t.Fatal("SEU burst produced no upsets")
	}
	if noRetry.Failed == 0 {
		t.Error("corrupted batches produced no failures without retry")
	}
	if withRetry.Retries == 0 {
		t.Error("retry policy scheduled no retries under the SEU burst")
	}
	if withRetry.Failed >= noRetry.Failed {
		t.Errorf("retry did not reduce failures: %d with vs %d without", withRetry.Failed, noRetry.Failed)
	}
}

func TestEngineValidation(t *testing.T) {
	bad := []func(*Scenario){
		func(s *Scenario) { s.Network.CapacityBps = 0 },
		func(s *Scenario) { s.Network.BaseLatencySec = -1 },
		func(s *Scenario) { s.Compute.Proc = nil },
		func(s *Scenario) { s.Compute.TargetBatch = 0 },
		func(s *Scenario) { s.Workload.DurationSec = (MaxSteps + 1) * stepSec },
		func(s *Scenario) { s.Workload.BaseRatePerSec = 0 },
		func(s *Scenario) { s.Policy.Retry = RetryPolicy{MaxAttempts: 3, BackoffFactor: 0.5} },
		func(s *Scenario) { s.Policy.Admission = []ClassPolicy{{RatePerSec: -1}} },
		func(s *Scenario) { s.Campaign = []Fault{{Kind: GroundOutage, StartSec: 10, EndSec: 5, Factor: 0.5}} },
		func(s *Scenario) { s.Campaign = []Fault{{Kind: GroundOutage, StartSec: 0, EndSec: 5, Factor: 0}} },
		func(s *Scenario) { s.Campaign = []Fault{{Kind: SEUBurst, StartSec: 0, EndSec: 5}} },
		func(s *Scenario) { s.Campaign = []Fault{{Kind: FaultKind(99), StartSec: 0, EndSec: 5}} },
	}
	for i, mutate := range bad {
		sc := testScenario(Policy{})
		mutate(&sc)
		if _, err := Run(sc); err == nil {
			t.Errorf("bad scenario %d accepted", i)
		}
	}
}

// TestEngineAllocsFlat is the pipeline twin of the generator's alloc
// guard: 4× the request volume through the full engine must not allocate
// meaningfully more, because every queue is bounded by policy caps, not by
// demand.
func TestEngineAllocsFlat(t *testing.T) {
	run := func(rate float64) func() {
		return func() {
			sc := testScenario(mustPreset(t, PolicyPriorityRetry, 100))
			sc.Workload.BaseRatePerSec = rate
			sc.Workload.DurationSec = 240
			res, err := Run(sc)
			if err != nil {
				t.Fatal(err)
			}
			if res.Offered == 0 {
				t.Fatal("no requests offered")
			}
		}
	}
	low := testing.AllocsPerRun(3, run(100))
	high := testing.AllocsPerRun(3, run(400))
	if high > low*1.5+64 {
		t.Errorf("4× load cost %v allocs vs %v: engine queues are not bounded", high, low)
	}
}
