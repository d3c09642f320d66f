package sched

import (
	"math"
	"math/rand/v2"
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

// scriptedSource is a rand.Source that returns vals in order and panics
// past the last one, so a test names every draw the code takes. The value
// 0 makes an exponential draw 0 and a uniform draw 0.
type scriptedSource struct {
	vals []uint64
	used int
}

func (s *scriptedSource) Uint64() uint64 {
	v := s.vals[s.used]
	s.used++
	return v
}

// TestDrawsOnlyWhereDecided pins the rule that a draw happens only where
// an output reads it: early discard draws only for a keep probability
// strictly between 0 and 1, and an upset draws its kind only for a reset
// split strictly between 0 and 1. Outside those ranges each decides as a
// draw would have, without one.
func TestDrawsOnlyWhereDecided(t *testing.T) {
	for _, c := range []struct {
		keep    float64
		discard bool
	}{{-1, true}, {0, true}, {1, false}, {1.5, false}, {math.NaN(), false}} {
		if got := discarded(nil, c.keep); got != c.discard { // a nil stream panics on a draw
			t.Errorf("keep %v: discarded %v, want %v", c.keep, got, c.discard)
		}
	}
	src := &scriptedSource{vals: []uint64{0}}
	if discarded(rand.New(src), 0.5) || src.used != 1 {
		t.Errorf("keep 0.5 with the draw 0: want kept after one draw, took %d", src.used)
	}
	for _, c := range []struct {
		split float64
		reset bool
		draws int
	}{{0, false, 1}, {math.NaN(), false, 1}, {1, true, 1}, {0.5, true, 2}} {
		src := &scriptedSource{vals: []uint64{0, 0}}
		e := BatchExec{BaseSecs: 1, BaseJoules: 1, Hazard: constHazard(1), ResetFraction: c.split, ResetMTTRSec: 5, Rng: rand.New(src)}
		p := e.RunOnce(0)
		if !p.Upset || p.Reset != c.reset || src.used != c.draws {
			t.Errorf("reset split %v: %+v after %d draws, want an upset, reset %v, %d draws", c.split, p, src.used, c.reset, c.draws)
		}
	}
}

// fixedService serves every batch in secs seconds.
type fixedService struct{ secs float64 }

func (p fixedService) Process(int, float64) (float64, float64) { return p.secs, p.secs }

// TestUpsetCountMatchesHazard checks the upset sampling against its closed
// form. Each run serves n one-frame batches of s seconds under a constant
// hazard λ with no mitigation and no resets, so the batch schedule does
// not depend on the draws, and each batch is upset independently with
// probability p = 1 − e^(−λs). Over many seeds the mean upset count must
// lie within 4 standard errors of n·p, and the share of runs with no upset
// within 4 standard errors of (1 − p)^n = e^(−nλs).
func TestUpsetCountMatchesHazard(t *testing.T) {
	const (
		seeds  = 4000
		n      = 10  // batches per run: arrivals at 0, 1, …, 9 s
		lambda = 0.2 // upsets per busy second
		secs   = 0.5 // every batch's service time
	)
	cfg := Config{
		Satellites:     1,
		FramePeriodSec: 1,
		PixelsPerFrame: 1,
		TargetBatch:    1,
		DurationSec:    n - 0.5,
		Faults:         &FaultConfig{Hazard: constHazard(lambda)},
	}
	var sum float64
	zero := 0
	for seed := int64(1); seed <= seeds; seed++ {
		cfg.Seed = seed
		st, err := Simulate(cfg, fixedService{secs})
		if err != nil {
			t.Fatal(err)
		}
		if st.Batches != n || st.Corrupted != st.Upsets || st.DeviceResets != 0 {
			t.Fatalf("seed %d: %+v, want %d batches, one corrupt frame per upset and no reset", seed, st, n)
		}
		sum += float64(st.Upsets)
		if st.Upsets == 0 {
			zero++
		}
	}
	p := 1 - math.Exp(-lambda*secs)
	mean, wantMean := sum/seeds, n*p
	if se := math.Sqrt(n * p * (1 - p) / seeds); math.Abs(mean-wantMean) > 4*se {
		t.Errorf("mean upsets %.4f over %d seeds, want %.4f ± %.4f (4 standard errors)", mean, seeds, wantMean, 4*se)
	}
	share, q := float64(zero)/seeds, math.Exp(-n*lambda*secs)
	if se := math.Sqrt(q * (1 - q) / seeds); math.Abs(share-q) > 4*se {
		t.Errorf("%.4f of runs saw no upset, want %.4f ± %.4f (4 standard errors)", share, q, 4*se)
	}
	t.Logf("mean upsets %.4f (closed form %.4f), zero-upset share %.4f (closed form %.4f)", mean, wantMean, share, q)
}
