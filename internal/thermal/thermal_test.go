package thermal

import (
	"math"
	"testing"

	"spacedc/internal/units"
)

func TestRadiatorValidate(t *testing.T) {
	if err := DefaultRadiator().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Radiator{
		{Emissivity: 0, PanelTempK: 290, SinkTempK: 3},
		{Emissivity: 1.5, PanelTempK: 290, SinkTempK: 3},
		{Emissivity: 0.8, PanelTempK: 0, SinkTempK: 3},
		{Emissivity: 0.8, PanelTempK: 290, SinkTempK: 300}, // sink hotter
		{Emissivity: 0.8, PanelTempK: 290, SinkTempK: -1},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Errorf("bad radiator %d accepted: %+v", i, r)
		}
	}
}

func TestRadiatorAreaFor4kW(t *testing.T) {
	// 290 K panel, ε=0.85, deep-space sink: ≈341 W/m² → ≈11.7 m² for the
	// 4 kW SµDC compute load.
	area, err := DefaultRadiator().AreaForLoad(4 * units.Kilowatt)
	if err != nil {
		t.Fatal(err)
	}
	if area < 10 || area > 14 {
		t.Errorf("4 kW radiator = %v m², want ≈11.7", area)
	}
	// The 256 kW station-class SµDC needs ISS-scale radiators.
	big, err := DefaultRadiator().AreaForLoad(256 * units.Kilowatt)
	if err != nil {
		t.Fatal(err)
	}
	if big < 600 || big > 900 {
		t.Errorf("256 kW radiator = %v m², want ≈750", big)
	}
}

func TestEarthFacingRadiatorIsWorse(t *testing.T) {
	deep := DefaultRadiator()
	earth := deep
	earth.SinkTempK = EarthFacingSinkK
	aDeep, err := deep.AreaForLoad(4 * units.Kilowatt)
	if err != nil {
		t.Fatal(err)
	}
	aEarth, err := earth.AreaForLoad(4 * units.Kilowatt)
	if err != nil {
		t.Fatal(err)
	}
	if aEarth <= aDeep {
		t.Errorf("Earth-facing radiator (%v m²) should need more area than deep-space (%v m²)", aEarth, aDeep)
	}
}

func TestFluxMonotonicInTemperature(t *testing.T) {
	r := DefaultRadiator()
	prev := 0.0
	for temp := 250.0; temp <= 400; temp += 25 {
		r.PanelTempK = temp
		if f := r.FluxWM2(); f <= prev {
			t.Fatalf("flux not increasing at %v K", temp)
		} else {
			prev = f
		}
	}
}

func TestHeatPipes(t *testing.T) {
	hp := DefaultHeatPipe()
	// 4 kW over 3 m = 12 000 W·m → 24 pipes + 1 spare.
	n, err := hp.PipesNeeded(4*units.Kilowatt, 3)
	if err != nil {
		t.Fatal(err)
	}
	if n != 25 {
		t.Errorf("pipes = %d, want 25", n)
	}
	if _, err := hp.PipesNeeded(units.Kilowatt, 0); err == nil {
		t.Error("zero run accepted")
	}
	if _, err := (HeatPipe{}).PipesNeeded(units.Kilowatt, 1); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestTEGRecovery(t *testing.T) {
	teg := ThermoelectricRecovery{HotK: 350, ColdK: 290, QualityFactor: 0.15}
	// Carnot = 1 - 290/350 ≈ 0.171 → ×0.15 ≈ 2.6% of the waste stream.
	eff := teg.Efficiency()
	if math.Abs(eff-0.0257) > 0.002 {
		t.Errorf("TEG efficiency = %v, want ≈0.026", eff)
	}
	rec := teg.Recovered(4 * units.Kilowatt)
	if rec < 90*units.Watt || rec > 115*units.Watt {
		t.Errorf("recovered = %v, want ≈103 W", rec)
	}
	// Degenerate gradients recover nothing.
	if (ThermoelectricRecovery{HotK: 290, ColdK: 290, QualityFactor: 0.15}).Efficiency() != 0 {
		t.Error("zero gradient should recover nothing")
	}
	if (ThermoelectricRecovery{HotK: 280, ColdK: 290, QualityFactor: 0.15}).Efficiency() != 0 {
		t.Error("inverted gradient should recover nothing")
	}
	// Quality clamps to [0, 1].
	over := ThermoelectricRecovery{HotK: 350, ColdK: 290, QualityFactor: 5}
	if over.Efficiency() > 1-290.0/350 {
		t.Error("efficiency should not exceed Carnot")
	}
}

func TestHeatPipeValidate(t *testing.T) {
	if err := DefaultHeatPipe().Validate(); err != nil {
		t.Fatal(err)
	}
	for _, cap := range []float64{0, -10, math.NaN(), math.Inf(1)} {
		hp := HeatPipe{CapacityWm: cap}
		if err := hp.Validate(); err == nil {
			t.Errorf("capacity %v: want validation error", cap)
		}
		if _, err := hp.PipesNeeded(units.Kilowatt, 3); err == nil {
			t.Errorf("capacity %v: PipesNeeded should reject the pipe", cap)
		}
	}
}

func TestSizeBudget(t *testing.T) {
	b, err := SizeBudget(4 * units.Kilowatt)
	if err != nil {
		t.Fatal(err)
	}
	if b.RadiatorAreaM2 < 10 || b.HeatPipes < 10 || b.TEGRecovered <= 0 {
		t.Errorf("budget implausible: %+v", b)
	}
	// Recovery never exceeds a few percent of the load.
	if float64(b.TEGRecovered) > 0.05*float64(b.Load) {
		t.Errorf("TEG recovers %v of %v — too good", b.TEGRecovered, b.Load)
	}
}
