package resilience

import (
	"math"
	"testing"

	"spacedc/internal/econ"
	"spacedc/internal/sched"
)

// flatProc is a constant-rate processor for scenario tests.
type flatProc struct{}

func (flatProc) Process(frames int, pixels float64) (float64, float64) {
	secs := pixels / 2e6
	return secs, secs * 100
}

func testScenario(t *testing.T) Scenario {
	t.Helper()
	env := buildTrace(t, 51.6, 420)
	return Scenario{
		Base: sched.Config{
			Satellites:     4,
			FramePeriodSec: 1.5,
			PixelsPerFrame: 2e5,
			TargetBatch:    4,
			MaxWaitSec:     10,
			DurationSec:    3000,
			Seed:           3,
		},
		Proc:   flatProc{},
		Env:    env,
		Hazard: DefaultHazard(),
	}
}

func TestStandardPoliciesWellFormed(t *testing.T) {
	pols := StandardPolicies()
	if len(pols) != 5 {
		t.Fatalf("%d standard policies, want 5", len(pols))
	}
	seen := map[string]bool{}
	for _, p := range pols {
		if p.Name == "" || seen[p.Name] {
			t.Errorf("bad or duplicate policy name %q", p.Name)
		}
		seen[p.Name] = true
	}
	if !seen["none"] || !seen["tmr"] || !seen["saa-pause"] {
		t.Errorf("missing ladder rungs: %v", seen)
	}
}

// TestPolicyTableMatchesEcon checks the recovery-policy table against
// econ's price list: every name econ can price resolves to a policy, and
// every policy is one econ can price.
func TestPolicyTableMatchesEcon(t *testing.T) {
	priced := []string{econ.RecoveryNone, econ.RecoveryRetry, econ.RecoveryCheckpoint,
		econ.RecoveryDMR, econ.RecoveryTMR, econ.RecoverySAAPause}
	for _, name := range priced {
		if p, err := PolicyNamed(name); err != nil || p.Name != name {
			t.Errorf("econ name %q: policy %+v, %v", name, p, err)
		}
	}
	for _, p := range policies {
		if _, err := econ.RecoveryDeviceFactor(p.Name); err != nil {
			t.Errorf("policy %q: %v", p.Name, err)
		}
	}
	if len(policies) != len(priced) {
		t.Errorf("%d policies, econ prices %d", len(policies), len(priced))
	}
	if _, err := PolicyNamed("quad"); err == nil {
		t.Error("unknown policy name resolved")
	}
}

func TestScenarioRequiresEnv(t *testing.T) {
	sc := testScenario(t)
	sc.Env = nil
	if _, err := sc.Evaluate(Policy{Name: "none"}, sched.Stats{}); err == nil {
		t.Error("scenario without an environment trace accepted")
	}
}

// TestZeroHazardMatchesBaselineAllPolicies is the acceptance criterion:
// with the hazard forced to zero, every mitigation policy reproduces the
// fault-free pipeline bit for bit.
func TestZeroHazardMatchesBaselineAllPolicies(t *testing.T) {
	sc := testScenario(t)
	sc.Hazard = HazardModel{BaseRatePerSec: 0, SAAMultiplier: 100}
	baseline, err := sc.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	for _, pol := range StandardPolicies() {
		if pol.PauseInSAA {
			continue // the pause intentionally changes launches regardless of hazard
		}
		rep, err := sc.Evaluate(pol, baseline)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Stats != baseline {
			t.Errorf("%s: zero-hazard stats diverged from baseline:\n got %+v\nwant %+v",
				pol.Name, rep.Stats, baseline)
		}
		if rep.EnergyOverhead != 1 {
			t.Errorf("%s: zero-hazard energy overhead %v, want 1", pol.Name, rep.EnergyOverhead)
		}
	}
}

func TestEvaluateAllDeterministic(t *testing.T) {
	sc := testScenario(t)
	a, err := sc.EvaluateAll(StandardPolicies())
	if err != nil {
		t.Fatal(err)
	}
	b, err := sc.EvaluateAll(StandardPolicies())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("policy %s: reports diverged across identical runs", a[i].Policy)
		}
	}
}

// TestMitigationLadder checks the headline ordering on a hazard hot enough
// to differentiate the rungs: stronger mitigation recovers at least as much
// goodput and spends at least as much energy.
func TestMitigationLadder(t *testing.T) {
	sc := testScenario(t)
	byName := map[string]Report{}
	reports, err := sc.EvaluateAll(StandardPolicies())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		byName[r.Policy] = r
	}
	if byName["none"].Stats.Corrupted == 0 {
		t.Fatal("hazard produced no corruption — ladder not exercised")
	}
	order := []string{"none", "retry", "checkpoint", "tmr"}
	for i := 1; i < len(order); i++ {
		lo, hi := byName[order[i-1]], byName[order[i]]
		if hi.GoodputFPS < lo.GoodputFPS-1e-9 {
			t.Errorf("goodput(%s)=%v < goodput(%s)=%v", order[i], hi.GoodputFPS, order[i-1], lo.GoodputFPS)
		}
		if hi.Stats.EnergyJ < lo.Stats.EnergyJ-1e-6 {
			t.Errorf("energy(%s)=%v < energy(%s)=%v", order[i], hi.Stats.EnergyJ, order[i-1], lo.Stats.EnergyJ)
		}
	}
	// The SAA pause trades availability for energy: cheapest energy
	// overhead of any protective policy, availability down by ~the dwell.
	pause := byName["saa-pause"]
	if pause.EnergyOverhead > byName["checkpoint"].EnergyOverhead {
		t.Errorf("pause overhead %v exceeds checkpoint %v", pause.EnergyOverhead, byName["checkpoint"].EnergyOverhead)
	}
	wantAvail := 1 - sc.Env.SAAFraction()
	if math.Abs(pause.Availability-wantAvail) > 0.02 {
		t.Errorf("pause availability %v, want ≈ 1 - SAA dwell = %v", pause.Availability, wantAvail)
	}
}
