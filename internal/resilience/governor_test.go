package resilience

import (
	"math"
	"testing"

	"spacedc/internal/discard"
	"spacedc/internal/obs"
	"spacedc/internal/thermal"
	"spacedc/internal/units"
)

func testGovernor(t *testing.T) *Governor {
	t.Helper()
	// Radiator sized for exactly half the 1 kW peak, 10 kJ of buffer.
	g, err := GovernorForBudget(units.Kilowatt, 500*units.Watt, 1e4, discard.Ocean)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGovernorValidation(t *testing.T) {
	rad := thermal.DefaultRadiator()
	cases := map[string]func() (*Governor, error){
		"bad radiator": func() (*Governor, error) {
			return NewGovernor(units.Kilowatt, thermal.Radiator{}, 1, 1e4, discard.None)
		},
		"zero peak": func() (*Governor, error) {
			return NewGovernor(0, rad, 1, 1e4, discard.None)
		},
		"zero area": func() (*Governor, error) {
			return NewGovernor(units.Kilowatt, rad, 0, 1e4, discard.None)
		},
		"NaN area": func() (*Governor, error) {
			return NewGovernor(units.Kilowatt, rad, math.NaN(), 1e4, discard.None)
		},
		"zero headroom": func() (*Governor, error) {
			return NewGovernor(units.Kilowatt, rad, 1, 0, discard.None)
		},
		"bad shed rate": func() (*Governor, error) {
			return NewGovernor(units.Kilowatt, rad, 1, 1e4, discard.Criterion{Name: "x", Rate: 1.5})
		},
		"zero budget": func() (*Governor, error) {
			return GovernorForBudget(units.Kilowatt, 0, 1e4, discard.None)
		},
	}
	for name, build := range cases {
		if _, err := build(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestGovernorForBudgetCapacity(t *testing.T) {
	g := testGovernor(t)
	// SizeBudget sizes the radiator at exactly load/flux, so capacity
	// round-trips to the sized-for power.
	if math.Abs(g.CapacityW-500) > 1e-6 {
		t.Errorf("capacity %v W, want 500", g.CapacityW)
	}
}

func TestGovernorDerateAndRecovery(t *testing.T) {
	g := testGovernor(t)
	if f := g.Factor(0); f != 1 {
		t.Fatalf("cold governor factor %v, want 1", f)
	}
	if k := g.KeepFactor(0); k != 1 {
		t.Fatalf("cold governor keep %v, want 1", k)
	}
	// Dump 3× the headroom: bucket saturates, factor floors at the
	// sustainable fraction, shedding reaches the criterion's full rate.
	g.Dissipated(0, 10, 3e4)
	if f := g.Factor(10); math.Abs(f-0.5) > 1e-9 {
		t.Errorf("saturated factor %v, want capacity/peak = 0.5", f)
	}
	if k := g.KeepFactor(10); math.Abs(k-(1-discard.Ocean.Rate)) > 1e-9 {
		t.Errorf("saturated keep %v, want %v", k, 1-discard.Ocean.Rate)
	}
	// Half-full bucket: linear interpolation.
	g.Reset()
	g.Dissipated(0, 1, 5e3)
	if f := g.Factor(1); math.Abs(f-0.75) > 1e-9 {
		t.Errorf("half-full factor %v, want 0.75", f)
	}
	// The 500 W radiator clears the remaining 5 kJ in 10 s (modulo the
	// ulp-level capacity round-trip through area = load/flux).
	if f := g.Factor(11); f < 1-1e-12 {
		t.Errorf("factor %v after drain, want full recovery", f)
	}
	if g.storedJ > 1e-9 {
		t.Errorf("stored %v J after drain, want ~0", g.storedJ)
	}
}

func TestGovernorDayNightCapacity(t *testing.T) {
	day := &EnvTrace{StepSec: 1, InSAA: make([]bool, 100), Sunlit: make([]bool, 100)}
	night := &EnvTrace{StepSec: 1, InSAA: make([]bool, 100), Sunlit: make([]bool, 100)}
	for i := range day.Sunlit {
		day.Sunlit[i] = true
	}
	charge := func(env *EnvTrace) float64 {
		g := testGovernor(t)
		g.Env = env
		g.SunlitFactor = 0.8
		g.Dissipated(0, 1, 6e3)
		g.Factor(11) // advance 10 s of draining
		return g.storedJ
	}
	sunlit, eclipse := charge(day), charge(night)
	if eclipse >= sunlit {
		t.Errorf("eclipse store %v J should drain faster than sunlit %v J", eclipse, sunlit)
	}
	// Sunlit drains at 0.8×500 W, eclipse at the full 500 W.
	if math.Abs(sunlit-eclipse-0.2*500*10) > 1e-6 {
		t.Errorf("day/night drain gap %v J, want 1000", sunlit-eclipse)
	}
}

// TestGovernorTransitionEventOrder drives a scripted heat/cool cycle
// through an instrumented governor and asserts the derate/shed transition
// events stream in a fixed, fully deterministic order — and that repeated
// runs from a fresh governor and registry reproduce the sequence exactly.
// Downstream QoS degradation control keys off these edges, so their order
// and values must not wander between runs.
func TestGovernorTransitionEventOrder(t *testing.T) {
	drive := func() []obs.Event {
		g := testGovernor(t)
		reg := obs.New()
		g.Instrument(reg)
		ch, cancel := reg.Subscribe(64)
		defer cancel()

		// Charge past the headroom, sample mid-regime (no edge), then
		// idle long enough for the 500 W radiator to drain 12 kJ and
		// recover both regimes.
		g.Dissipated(0, 1, 12e3)
		g.Factor(1)
		g.KeepFactor(1)
		g.Factor(5)
		g.KeepFactor(5)
		g.Factor(60)
		g.KeepFactor(60)

		var events []obs.Event
		for {
			select {
			case e := <-ch:
				events = append(events, e)
			default:
				return events
			}
		}
	}

	first := drive()
	wantNames := []string{
		"resilience.governor.derate", // enter derate at t=1
		"resilience.governor.shed",   // enter shed at t=1
		"resilience.governor.derate", // recover by t=60
		"resilience.governor.shed",   // recover by t=60
	}
	if len(first) != len(wantNames) {
		t.Fatalf("got %d transition events, want %d: %+v", len(first), len(wantNames), first)
	}
	for i, e := range first {
		if e.Name != wantNames[i] {
			t.Errorf("event %d: name %q, want %q", i, e.Name, wantNames[i])
		}
		if e.Kind != "transition" {
			t.Errorf("event %d: kind %q, want transition", i, e.Kind)
		}
	}
	// Onset events carry the degraded factor, recovery events carry 1.
	if first[0].Value >= 1 || first[1].Value >= 1 {
		t.Errorf("onset factors %v, %v should be < 1", first[0].Value, first[1].Value)
	}
	if first[2].Value != 1 || first[3].Value != 1 {
		t.Errorf("recovery factors %v, %v should be exactly 1", first[2].Value, first[3].Value)
	}

	for run := 1; run <= 3; run++ {
		again := drive()
		if len(again) != len(first) {
			t.Fatalf("run %d: %d events, want %d", run, len(again), len(first))
		}
		for i := range first {
			if again[i] != first[i] {
				t.Errorf("run %d event %d = %+v, want %+v (non-deterministic stream)", run, i, again[i], first[i])
			}
		}
	}
}
