package sched

import (
	"math"
	"testing"
)

// constHazard returns a time-independent hazard function.
func constHazard(rate float64) func(float64) float64 {
	return func(float64) float64 { return rate }
}

func faultConfig(rate float64) *FaultConfig {
	return &FaultConfig{
		Hazard:        constHazard(rate),
		ResetFraction: 0.1,
		ResetMTTRSec:  30,
	}
}

func TestFaultConfigValidate(t *testing.T) {
	bad := map[string]*FaultConfig{
		"negative reset fraction": {ResetFraction: -0.1},
		"reset fraction above 1":  {ResetFraction: 1.5},
		"negative MTTR":           {ResetMTTRSec: -1},
		"NaN MTTR":                {ResetMTTRSec: math.NaN()},
		"infinite MTTR":           {ResetMTTRSec: math.Inf(1)},
	}
	for name, f := range bad {
		c := baseConfig()
		c.Faults = f
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestZeroHazardMatchesBaseline is the bit-for-bit guarantee the resilience
// layer is built on: enabling the fault machinery with a zero hazard must
// not perturb the simulation at all — same stats, same random draws.
func TestZeroHazardMatchesBaseline(t *testing.T) {
	proc := fixedRate{pixelsPerSec: 2e6, watts: 100}
	c := baseConfig()
	c.KeepProb = func(sat int, tm float64) float64 { return 0.8 } // exercise the shared rng
	base, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	withFaults := c
	withFaults.Faults = faultConfig(0)
	got, err := Simulate(withFaults, proc)
	if err != nil {
		t.Fatal(err)
	}
	if got != base {
		t.Errorf("zero-hazard run diverged from baseline:\n got %+v\nwant %+v", got, base)
	}
}

// TestFaultDeterminism: the single injected rng makes fault runs a pure
// function of (Config, Processor).
func TestFaultDeterminism(t *testing.T) {
	proc := fixedRate{pixelsPerSec: 2e6, watts: 100}
	c := baseConfig()
	c.Faults = faultConfig(0.05)
	a, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same seed diverged:\n %+v\n %+v", a, b)
	}
	if a.Upsets == 0 {
		t.Fatal("hazard produced no upsets — test not exercising faults")
	}
	c.Seed = 99
	d, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	if a == d {
		t.Error("different seeds produced identical fault stats")
	}
}

func TestCorruptionAccounting(t *testing.T) {
	proc := fixedRate{pixelsPerSec: 2e6, watts: 100}
	c := baseConfig()
	c.Faults = &FaultConfig{Hazard: constHazard(0.2)} // silent corruption only
	st, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Corrupted == 0 || st.Upsets == 0 {
		t.Fatalf("expected corruption under heavy hazard: %+v", st)
	}
	if st.DeviceResets != 0 || st.DowntimeSec != 0 {
		t.Errorf("zero reset fraction produced resets: %+v", st)
	}
	if st.Arrived != st.Processed+st.Corrupted+st.Dropped+st.LeftOver {
		t.Errorf("conservation violated: %+v", st)
	}
}

func TestResetDowntime(t *testing.T) {
	proc := fixedRate{pixelsPerSec: 2e6, watts: 100}
	c := baseConfig()
	c.Faults = &FaultConfig{Hazard: constHazard(0.2), ResetFraction: 1, ResetMTTRSec: 5}
	st, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	if st.DeviceResets == 0 {
		t.Fatal("expected device resets at reset fraction 1")
	}
	if st.DeviceResets != st.Upsets {
		t.Errorf("all upsets should reset: %d upsets, %d resets", st.Upsets, st.DeviceResets)
	}
	want := float64(st.DeviceResets) * 5
	if math.Abs(st.DowntimeSec-want) > 1e-9 {
		t.Errorf("downtime %v, want resets×MTTR = %v", st.DowntimeSec, want)
	}
	// Downtime is excluded from busy time.
	if st.BusySec+st.DowntimeSec > c.DurationSec+60 {
		t.Errorf("busy %v + down %v exceed the mission span", st.BusySec, st.DowntimeSec)
	}
}

func TestPauseActiveBlocksLaunches(t *testing.T) {
	proc := fixedRate{pixelsPerSec: 2e6, watts: 100}
	c := baseConfig()
	c.Faults = &FaultConfig{PauseActive: func(float64) bool { return true }}
	st, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches != 0 || st.Processed != 0 {
		t.Errorf("permanent pause still launched batches: %+v", st)
	}
	if st.Arrived == 0 {
		t.Error("arrivals should continue during a pause")
	}
	// A pause only over the first half defers, not destroys, throughput.
	c.Faults = &FaultConfig{PauseActive: func(tm float64) bool { return tm < c.DurationSec/2 }}
	half, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	if half.Processed == 0 {
		t.Error("processing should resume when the pause lifts")
	}
}

// stretchHook is a constant-factor thermal hook recording dissipation.
type stretchHook struct {
	factor  float64
	joules  float64
	lastEnd float64
}

func (s *stretchHook) Factor(float64) float64 { return s.factor }
func (s *stretchHook) Dissipated(start, secs, joules float64) {
	s.joules += joules
	s.lastEnd = start + secs
}

func TestThermalThrottleStretchesService(t *testing.T) {
	proc := fixedRate{pixelsPerSec: 2e6, watts: 100}
	c := baseConfig()
	base, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	hook := &stretchHook{factor: 0.5}
	c.Thermal = hook
	st, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	if st.ThrottleSec <= 0 {
		t.Fatal("half-capacity hook recorded no throttle time")
	}
	// Service times doubled: throttle share is half the busy time.
	if math.Abs(st.ThrottleSec-st.BusySec/2) > 1e-6 {
		t.Errorf("throttle %v, want half of busy %v", st.ThrottleSec, st.BusySec)
	}
	// Power capping conserves energy per batch: each batch keeps its
	// joules over a longer wall time, so energy per processed frame holds
	// even though the saturated device finishes fewer batches.
	if math.Abs(st.EnergyPerFrameJ()-base.EnergyPerFrameJ()) > 1e-6*base.EnergyPerFrameJ() {
		t.Errorf("throttling changed energy per frame: %v vs %v",
			st.EnergyPerFrameJ(), base.EnergyPerFrameJ())
	}
	if hook.joules <= 0 || hook.lastEnd <= 0 {
		t.Error("hook never saw dissipation")
	}
}

func TestThermalFactorFloorPreventsStall(t *testing.T) {
	proc := fixedRate{pixelsPerSec: 2e6, watts: 100}
	c := baseConfig()
	c.Thermal = &stretchHook{factor: 0} // degenerate: would stretch to infinity
	st, err := Simulate(c, proc)
	if err != nil {
		t.Fatal(err)
	}
	if st.Batches == 0 {
		t.Error("floored factor should still launch batches")
	}
	for _, v := range []float64{st.BusySec, st.ThrottleSec, st.EnergyJ} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("degenerate factor produced non-finite stats: %+v", st)
		}
	}
}

// TestRunPassZeroHazardDrawsNothing pins the no-draw contract RunPass
// gives recovery policies: with no hazard it must not touch the rng.
func TestRunPassZeroHazardDrawsNothing(t *testing.T) {
	e := BatchExec{Start: 10, BaseSecs: 2, BaseJoules: 200}
	// Rng is nil: any draw would panic.
	p := e.RunOnce(e.Start)
	if p.Secs != 2 || p.Joules != 200 || p.Upset || p.Reset || p.DownSec != 0 {
		t.Errorf("zero-hazard pass perturbed the operating point: %+v", p)
	}
	if o := (noMitigation{}).Execute(e); o.Secs != 2 || o.Joules != 200 || !o.Good || o.Upsets != 0 || o.DownSec != 0 {
		t.Errorf("zero-hazard unmitigated batch perturbed: %+v", o)
	}
	e.Hazard = func(tm float64) float64 { return math.NaN() }
	if p := e.RunOnce(e.Start); p.Upset {
		t.Errorf("NaN hazard should sanitize to zero: %+v", p)
	}
}
