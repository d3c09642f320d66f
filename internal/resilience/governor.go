package resilience

import (
	"fmt"
	"math"

	"spacedc/internal/discard"
	"spacedc/internal/obs"
	"spacedc/internal/thermal"
	"spacedc/internal/units"
)

// Governor is a first-order thermal model implementing sched.ThermalHook:
// dissipated batch energy charges a thermal-mass bucket, the radiator
// drains it at its sustainable capacity, and as the bucket fills the
// device is derated linearly down to the power the radiator can actually
// reject. Alongside throttling it sheds low-priority load upstream: its
// KeepFactor tightens the early-discard keep probability by up to the
// shed criterion's discard rate — graceful degradation instead of queue
// overflow. The governor is stateful and single-simulation: build a fresh
// one per run (or Reset between runs); it is not safe for concurrent use.
type Governor struct {
	CapacityW float64 // sustainable heat rejection of the radiator
	PeakW     float64 // worst-case device dissipation
	HeadroomJ float64 // thermal-mass buffer above steady state before full derate
	Shed      discard.Criterion

	// Env, when set, modulates rejection with the orbit's day/night
	// cycle: while sunlit the effective capacity is scaled by
	// SunlitFactor (solar load on the radiator view); in eclipse the full
	// capacity is available. A zero SunlitFactor means no modulation.
	Env          *EnvTrace
	SunlitFactor float64

	storedJ float64 // energy currently buffered in the thermal mass
	lastSec float64 // time the bucket was last advanced to

	// Observability handles (nil unless Instrument was called; all
	// operations on nil handles are no-ops). derated/shedding latch the
	// current regime so only transitions count.
	ctrDerate *obs.Counter
	ctrShed   *obs.Counter
	gStored   *obs.Gauge
	reg       *obs.Registry // event stream for transition edges
	derated   bool
	shedding  bool

	// lastCapacity and lastKeep are the factors the latest derate and
	// shed transitions carried; NewGovernor and Reset set them to 1.
	lastCapacity, lastKeep float64
}

// Instrument points the governor's transition counters and stored-energy
// gauge at reg: "resilience.governor.derate_transitions" counts entries
// into the derated regime (capacity factor dropping below 1),
// "resilience.governor.shed_transitions" entries into load shedding, and
// "resilience.governor.stored_j" tracks the thermal-mass fill. A nil
// registry detaches instrumentation. Regime edges additionally stream as
// "resilience.governor.derate" / "resilience.governor.shed" transition
// events (value = the capacity/keep factor entering the new regime, 1 on
// recovery), which is what the sudcsimd SSE endpoint renders live.
func (g *Governor) Instrument(reg *obs.Registry) {
	g.ctrDerate = reg.Counter("resilience.governor.derate_transitions")
	g.ctrShed = reg.Counter("resilience.governor.shed_transitions")
	g.gStored = reg.Gauge("resilience.governor.stored_j")
	g.reg = reg
}

// NewGovernor builds a governor for a device dissipating up to peak,
// rejected by areaM2 of the given radiator, with headroomJ of thermal
// mass. shed is the discard criterion applied upstream under throttle
// (use discard.None to disable shedding).
func NewGovernor(peak units.Power, rad thermal.Radiator, areaM2, headroomJ float64, shed discard.Criterion) (*Governor, error) {
	if err := rad.Validate(); err != nil {
		return nil, err
	}
	if peak <= 0 {
		return nil, fmt.Errorf("resilience: non-positive peak dissipation %v", peak)
	}
	if areaM2 <= 0 || math.IsNaN(areaM2) || math.IsInf(areaM2, 0) {
		return nil, fmt.Errorf("resilience: invalid radiator area %v", areaM2)
	}
	if headroomJ <= 0 {
		return nil, fmt.Errorf("resilience: non-positive thermal headroom %v", headroomJ)
	}
	if err := shed.ValidateRate(); err != nil {
		return nil, err
	}
	return &Governor{
		CapacityW:    rad.FluxWM2() * areaM2,
		PeakW:        float64(peak),
		HeadroomJ:    headroomJ,
		Shed:         shed,
		lastCapacity: 1,
		lastKeep:     1,
	}, nil
}

// GovernorForBudget builds a governor whose radiator was sized by the
// default thermal.SizeBudget chain for sizedFor watts while the device
// can actually dissipate peak — the undersizing knob the throttling sweep
// turns (sizedFor == peak means a radiator that never saturates).
func GovernorForBudget(peak, sizedFor units.Power, headroomJ float64, shed discard.Criterion) (*Governor, error) {
	b, err := thermal.SizeBudget(sizedFor)
	if err != nil {
		return nil, err
	}
	return NewGovernor(peak, thermal.DefaultRadiator(), b.RadiatorAreaM2, headroomJ, shed)
}

// capacityAt returns the effective rejection capacity at time t.
func (g *Governor) capacityAt(t float64) float64 {
	if g.Env != nil && g.SunlitFactor > 0 && g.SunlitFactor < 1 && g.Env.SunlitAt(t) {
		return g.CapacityW * g.SunlitFactor
	}
	return g.CapacityW
}

// advance drains the bucket at radiator capacity up to time t, stepping
// at the environment trace's resolution so day/night capacity swings are
// honoured.
func (g *Governor) advance(t float64) {
	for t > g.lastSec {
		step := t - g.lastSec
		if g.Env != nil && step > g.Env.StepSec {
			step = g.Env.StepSec
		}
		g.storedJ -= g.capacityAt(g.lastSec) * step
		if g.storedJ < 0 {
			g.storedJ = 0
		}
		g.lastSec += step
	}
}

// minFactor is the fully-throttled capacity factor: the fraction of peak
// dissipation the radiator can reject continuously.
func (g *Governor) minFactor() float64 {
	f := g.CapacityW / g.PeakW
	if f > 1 {
		f = 1
	}
	if f < 0.01 {
		f = 0.01
	}
	return f
}

// severity is the bucket fill level in [0, 1].
func (g *Governor) severity() float64 {
	s := g.storedJ / g.HeadroomJ
	if s > 1 {
		s = 1
	}
	return s
}

// Factor implements sched.ThermalHook: the capacity factor interpolates
// from 1 (cool) down to the sustainable fraction as the buffer fills.
func (g *Governor) Factor(t float64) float64 {
	g.advance(t)
	f := 1 - (1-g.minFactor())*g.severity()
	g.gStored.Set(g.storedJ)
	if d := f < 1; d != g.derated {
		g.derated = d
		g.lastCapacity = f
		if d {
			g.ctrDerate.Inc()
		}
		g.reg.Emit("resilience.governor.derate", "transition", f)
	}
	return f
}

// Dissipated implements sched.ThermalHook.
func (g *Governor) Dissipated(start, secs, joules float64) {
	g.advance(start + secs)
	g.storedJ += joules
}

// KeepFactor returns the multiplicative keep probability the load-shedding
// stage applies upstream at time t: 1 when cool, dropping by the shed
// criterion's discard rate at full throttle. Compose it into
// sched.Config.KeepProb.
func (g *Governor) KeepFactor(t float64) float64 {
	g.advance(t)
	keep := 1 - g.Shed.Rate*g.severity()
	if s := keep < 1; s != g.shedding {
		g.shedding = s
		g.lastKeep = keep
		if s {
			g.ctrShed.Inc()
		}
		g.reg.Emit("resilience.governor.shed", "transition", keep)
	}
	return keep
}

// Transitions returns the capacity and keep factors the latest derate and
// shed transitions carried (1 before any since NewGovernor or Reset): the
// regime the governor last reported entering, not the live factors, which
// move inside a regime.
func (g *Governor) Transitions() (capacity, keep float64) {
	return g.lastCapacity, g.lastKeep
}

// Reset returns the governor to its cold initial state (instrumentation
// handles and their accumulated counts stay attached).
func (g *Governor) Reset() {
	g.storedJ = 0
	g.lastSec = 0
	g.derated = false
	g.shedding = false
	g.lastCapacity, g.lastKeep = 1, 1
}
