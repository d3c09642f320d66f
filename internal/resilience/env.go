package resilience

import (
	"fmt"
	"math"
	"time"

	"spacedc/internal/orbit"
	"spacedc/internal/radiation"
)

// EnvTrace precomputes the orbital environment over a simulated span at a
// fixed sampling step: whether the spacecraft is inside the South Atlantic
// Anomaly and whether it is sunlit. The trace is what couples the orbit
// and radiation models to the sched pipeline's continuous time axis.
type EnvTrace struct {
	StepSec float64
	InSAA   []bool
	Sunlit  []bool
}

// BuildEnvTrace propagates the orbit from start over durationSec and
// samples the SAA footprint and eclipse state every stepSec.
func BuildEnvTrace(el orbit.Elements, start time.Time, durationSec, stepSec float64, saa radiation.SAA) (*EnvTrace, error) {
	if durationSec <= 0 || stepSec <= 0 {
		return nil, fmt.Errorf("resilience: non-positive duration %v or step %v", durationSec, stepSec)
	}
	prop := orbit.J2Propagator{Elements: el}
	n := int(math.Ceil(durationSec/stepSec)) + 1
	tr := &EnvTrace{
		StepSec: stepSec,
		InSAA:   make([]bool, n),
		Sunlit:  make([]bool, n),
	}
	for i := 0; i < n; i++ {
		t := start.Add(time.Duration(float64(i) * stepSec * float64(time.Second)))
		st, err := prop.State(t)
		if err != nil {
			return nil, err
		}
		tr.InSAA[i] = saa.Contains(orbit.SubPoint(st.Position, t))
		tr.Sunlit[i] = orbit.Shadow(st.Position, t) == orbit.Sunlit
	}
	return tr, nil
}

// index maps a simulation time to the nearest trace sample, clamped to
// the trace bounds.
func (tr *EnvTrace) index(t float64) int {
	i := int(t / tr.StepSec)
	if i < 0 {
		return 0
	}
	if i >= len(tr.InSAA) {
		return len(tr.InSAA) - 1
	}
	return i
}

// InSAAAt reports whether the spacecraft is inside the anomaly at
// simulation time t (seconds past the trace start).
func (tr *EnvTrace) InSAAAt(t float64) bool { return tr.InSAA[tr.index(t)] }

// SunlitAt reports whether the spacecraft is in sunlight at time t.
func (tr *EnvTrace) SunlitAt(t float64) bool { return tr.Sunlit[tr.index(t)] }

// SAAFraction returns the share of trace samples inside the anomaly.
func (tr *EnvTrace) SAAFraction() float64 { return fraction(tr.InSAA, true) }

// fraction counts the share of samples equal to want.
func fraction(xs []bool, want bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	n := 0
	for _, x := range xs {
		if x == want {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// HazardModel turns the environment trace into an SEU hazard rate for the
// sched fault injector: a base rate outside the anomaly, multiplied inside
// it — the §9 observation that LEO spacecraft take most of their upsets in
// the SAA.
type HazardModel struct {
	// BaseRatePerSec is the upset rate per second of busy compute outside
	// the SAA.
	BaseRatePerSec float64
	// SAAMultiplier scales the rate inside the anomaly (≥1 in practice).
	SAAMultiplier float64
}

// DefaultHazard is a COTS-accelerator hazard: about one upset per ~8
// busy minutes outside the anomaly, 100× inside it.
func DefaultHazard() HazardModel {
	return HazardModel{BaseRatePerSec: 2e-3, SAAMultiplier: 100}
}

// Rate returns the hazard rate at simulation time t given the trace.
func (h HazardModel) Rate(env *EnvTrace, t float64) float64 {
	r := h.BaseRatePerSec
	if r < 0 {
		r = 0
	}
	if env != nil && env.InSAAAt(t) && h.SAAMultiplier > 1 {
		r *= h.SAAMultiplier
	}
	return r
}

// RateFunc binds the model to a trace as a sched.FaultConfig Hazard.
func (h HazardModel) RateFunc(env *EnvTrace) func(t float64) float64 {
	return func(t float64) float64 { return h.Rate(env, t) }
}
