package resilience

import (
	"math"
	"testing"
	"time"

	"spacedc/internal/orbit"
	"spacedc/internal/radiation"
)

var testEpoch = time.Date(2026, 3, 20, 0, 0, 0, 0, time.UTC)

func buildTrace(t *testing.T, incDeg, altKm float64) *EnvTrace {
	t.Helper()
	el := orbit.CircularLEO(altKm, incDeg*math.Pi/180, 0, 0, testEpoch)
	env, err := BuildEnvTrace(el, testEpoch, 12000, 10, radiation.DefaultSAA())
	if err != nil {
		t.Fatal(err)
	}
	return env
}

func TestBuildEnvTraceValidation(t *testing.T) {
	el := orbit.CircularLEO(500, 0, 0, 0, testEpoch)
	for name, args := range map[string][2]float64{
		"zero duration": {0, 10},
		"zero step":     {100, 0},
		"negative step": {100, -1},
	} {
		if _, err := BuildEnvTrace(el, testEpoch, args[0], args[1], radiation.DefaultSAA()); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestEnvTraceRegimes(t *testing.T) {
	// The SAA sits at 26°S: an equatorial orbit skirts it, the ISS
	// inclination grazes it, and a sun-synchronous orbit crosses it on
	// most revolutions — the dwell fractions must order accordingly.
	eq := buildTrace(t, 0, 550)
	iss := buildTrace(t, 51.6, 420)
	sso := buildTrace(t, 97.6, 550)
	if f := eq.SAAFraction(); f != 0 {
		t.Errorf("equatorial SAA fraction %v, want 0", f)
	}
	if iss.SAAFraction() <= 0.01 {
		t.Errorf("ISS SAA fraction %v implausibly low", iss.SAAFraction())
	}
	if sso.SAAFraction() <= iss.SAAFraction() {
		t.Errorf("SSO fraction %v should exceed ISS %v", sso.SAAFraction(), iss.SAAFraction())
	}
	// A ~90 min LEO spends roughly a third of each orbit in shadow.
	if f := fraction(iss.Sunlit, false); f < 0.2 || f > 0.5 {
		t.Errorf("ISS eclipse fraction %v outside [0.2, 0.5]", f)
	}
}

func TestEnvTraceIndexClamps(t *testing.T) {
	tr := &EnvTrace{StepSec: 10, InSAA: []bool{true, false, true}, Sunlit: []bool{false, true, false}}
	if !tr.InSAAAt(-100) {
		t.Error("times before the trace should clamp to the first sample")
	}
	if !tr.InSAAAt(1e9) {
		t.Error("times past the trace should clamp to the last sample")
	}
	if !tr.SunlitAt(15) {
		t.Error("t=15 s should map to sample 1")
	}
}

func TestHazardModel(t *testing.T) {
	tr := &EnvTrace{StepSec: 10, InSAA: []bool{false, true}, Sunlit: []bool{true, true}}
	h := HazardModel{BaseRatePerSec: 1e-3, SAAMultiplier: 100}
	if r := h.Rate(tr, 0); r != 1e-3 {
		t.Errorf("outside-SAA rate %v, want base", r)
	}
	if r := h.Rate(tr, 10); r != 0.1 {
		t.Errorf("inside-SAA rate %v, want base×100", r)
	}
	if r := h.Rate(nil, 0); r != 1e-3 {
		t.Errorf("nil-env rate %v, want base", r)
	}
	if r := (HazardModel{BaseRatePerSec: -5}).Rate(tr, 0); r != 0 {
		t.Errorf("negative base rate %v, want sanitized 0", r)
	}
	// A sub-unity multiplier must not *reduce* the in-SAA rate.
	weird := HazardModel{BaseRatePerSec: 1e-3, SAAMultiplier: 0.5}
	if r := weird.Rate(tr, 10); r != 1e-3 {
		t.Errorf("sub-unity multiplier applied: %v", r)
	}
	fn := h.RateFunc(tr)
	if fn(10) != 0.1 {
		t.Error("RateFunc should bind the trace")
	}
}
