package core

import (
	"math"
	"testing"
	"time"

	"spacedc/internal/orbit"
	"spacedc/internal/units"
)

func TestBatteryValidate(t *testing.T) {
	for _, b := range []Battery{LEOBattery(), GEOBattery()} {
		if err := b.Validate(); err != nil {
			t.Errorf("%+v invalid: %v", b, err)
		}
	}
	bad := LEOBattery()
	bad.DepthOfDischarge = 0
	if bad.Validate() == nil {
		t.Error("zero DoD accepted")
	}
	bad = LEOBattery()
	bad.RoundTripEfficiency = 1.2
	if bad.Validate() == nil {
		t.Error("efficiency > 1 accepted")
	}
	bad = LEOBattery()
	bad.CycleLife = 0
	if bad.Validate() == nil {
		t.Error("zero cycle life accepted")
	}
	bad = LEOBattery()
	bad.SpecificEnergyWhKg = -5
	if bad.Validate() == nil {
		t.Error("negative specific energy accepted")
	}
}

func TestBatteryCapacitySizing(t *testing.T) {
	b := LEOBattery()
	// 5 kW through a 36-minute eclipse: 3 kWh drawn → 3/(0.3·0.9) ≈
	// 11.1 kWh installed ≈ 74 kg at 150 Wh/kg.
	capa, err := b.CapacityForEclipse(5*units.Kilowatt, 36*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	wantWh := 5000.0 * 0.6 / (0.3 * 0.9)
	if gotWh := float64(capa) / 3600; math.Abs(gotWh-wantWh)/wantWh > 1e-9 {
		t.Errorf("capacity = %v Wh, want %v", gotWh, wantWh)
	}
	mass := b.MassKg(capa)
	if math.Abs(mass-wantWh/150)/mass > 1e-9 {
		t.Errorf("mass = %v kg", mass)
	}
	if _, err := b.CapacityForEclipse(units.Kilowatt, -time.Minute); err == nil {
		t.Error("negative eclipse accepted")
	}
}

func TestEclipseCyclesPerYear(t *testing.T) {
	epoch := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	leo := orbit.CircularLEO(550, 1, 0, 0, epoch)
	geo := orbit.Geostationary(0, epoch)
	leoCycles := EclipseCyclesPerYear(leo)
	geoCycles := EclipseCyclesPerYear(geo)
	// LEO: ~15 revs/day × 365 ≈ 5500.
	if leoCycles < 5000 || leoCycles > 6000 {
		t.Errorf("LEO cycles/year = %v, want ≈5500", leoCycles)
	}
	if geoCycles != 90 {
		t.Errorf("GEO cycles/year = %v, want 90 (equinox seasons)", geoCycles)
	}
}

func TestBatteryLifetimeLEOvsGEO(t *testing.T) {
	// Shallow LEO pack at ~5500 cycles/year: ≈5.5 years. Deep GEO pack at
	// 90 cycles/year: ≈22 years — why GEO missions run long (§9).
	leoYears := LEOBattery().LifetimeYears(5500)
	geoYears := GEOBattery().LifetimeYears(90)
	if leoYears < 3 || leoYears > 8 {
		t.Errorf("LEO battery life = %v yr", leoYears)
	}
	if geoYears < 15 {
		t.Errorf("GEO battery life = %v yr, want > 15", geoYears)
	}
	if !math.IsInf(LEOBattery().LifetimeYears(0), 1) {
		t.Error("no cycles should mean unbounded life")
	}
}

func TestSizePowerSystemLEOvsGEO(t *testing.T) {
	epoch := time.Date(2026, 3, 20, 0, 0, 0, 0, time.UTC)

	leoSuDC := Default4kW()
	leoOrbit := orbit.CircularLEO(550, 0.9, 0, 0, epoch)
	leoSys, err := SizePowerSystem(leoSuDC, leoOrbit, epoch)
	if err != nil {
		t.Fatal(err)
	}

	geoSuDC := Default4kW()
	geoSuDC.Placement = GEO
	geoOrbit := orbit.Geostationary(0, epoch)
	geoSys, err := SizePowerSystem(geoSuDC, geoOrbit, epoch)
	if err != nil {
		t.Fatal(err)
	}

	// §9: LEO SµDCs must carry more power generation than GEO for the
	// same load.
	if leoSys.ArrayPower <= geoSys.ArrayPower {
		t.Errorf("LEO array %v should exceed GEO array %v", leoSys.ArrayPower, geoSys.ArrayPower)
	}
	// Both carry the same 5 kW load.
	if leoSys.Load != 5*units.Kilowatt || geoSys.Load != 5*units.Kilowatt {
		t.Errorf("loads = %v / %v, want 5 kW", leoSys.Load, geoSys.Load)
	}
	// LEO batteries cycle hard and die young relative to GEO.
	if leoSys.BatteryYears >= geoSys.BatteryYears {
		t.Errorf("LEO battery life %v should trail GEO %v", leoSys.BatteryYears, geoSys.BatteryYears)
	}
	if leoSys.BatteryMassKg <= 0 || geoSys.BatteryMassKg <= 0 {
		t.Error("battery masses must be positive")
	}
	// Invalid SµDC propagates.
	bad := Default4kW()
	bad.ComputeBudget = 0
	if _, err := SizePowerSystem(bad, leoOrbit, epoch); err == nil {
		t.Error("invalid SµDC accepted")
	}
}

func TestDisaggregatedValidate(t *testing.T) {
	if err := DefaultDisaggregated().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultDisaggregated()
	bad.Modules = nil
	if bad.Validate() == nil {
		t.Error("empty module list accepted")
	}
	bad = DefaultDisaggregated()
	bad.WPTEfficiency = 0
	if bad.Validate() == nil {
		t.Error("zero WPT efficiency accepted")
	}
	bad = DefaultDisaggregated()
	bad.Modules[0].MassKg = 0
	if bad.Validate() == nil {
		t.Error("zero module mass accepted")
	}
	bad = DefaultDisaggregated()
	bad.Modules[0].ReplacementYears = -1
	if bad.Validate() == nil {
		t.Error("negative replacement period accepted")
	}
	bad = DefaultDisaggregated()
	bad.GeneratedPower = 0
	if bad.Validate() == nil {
		t.Error("zero generation accepted")
	}
}

func TestDisaggregatedLifecycleEconomics(t *testing.T) {
	// Over a 15-year mission with 4-year compute refreshes, relaunching
	// only the compute module beats relaunching whole monolithic SµDCs —
	// §9's case for disaggregating large/long-lived SµDCs.
	cm := DefaultCostModel()
	d := DefaultDisaggregated()
	const mission = 15.0

	disagg := d.LifecycleCost(mission, cm.LaunchPerKg)
	mono := MonolithicLifecycleCost(cm, mission, 4)
	if disagg >= mono {
		t.Errorf("disaggregated %v should beat monolithic %v over %v years", disagg, mono, mission)
	}

	// For a short mission with no refresh, the monolithic design's lower
	// total mass/complexity wins (§9: disaggregation costs more up
	// front).
	shortD := d.LifecycleCost(3, cm.LaunchPerKg)
	shortM := MonolithicLifecycleCost(cm, 3, 4)
	if shortD >= shortM {
		t.Logf("short-mission costs: disaggregated %v vs monolithic %v", shortD, shortM)
	} else {
		t.Errorf("3-year mission: disaggregated %v should not beat monolithic %v", shortD, shortM)
	}
}

func TestMonolithicLifecycleNoRefresh(t *testing.T) {
	cm := DefaultCostModel()
	once := MonolithicLifecycleCost(cm, 10, 0)
	if once != cm.SuDCCapex(1) {
		t.Errorf("no-refresh cost %v should equal single capex %v", once, cm.SuDCCapex(1))
	}
}
