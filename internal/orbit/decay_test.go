package orbit

import (
	"math"
	"testing"
)

func TestAtmosphereDensityShape(t *testing.T) {
	// Density falls monotonically with altitude over the LEO range.
	prev := math.Inf(1)
	for alt := 100.0; alt <= 1200; alt += 25 {
		rho := AtmosphereDensity(alt)
		if rho <= 0 || rho >= prev {
			t.Fatalf("density at %v km = %v (prev %v): not positive-decreasing", alt, rho, prev)
		}
		prev = rho
	}
	// Sanity anchors: ~4e-12 at 400 km, ~7e-13 at 500 km (static model).
	if rho := AtmosphereDensity(400); rho < 1e-12 || rho > 1e-11 {
		t.Errorf("density(400 km) = %v, want ≈3.7e-12", rho)
	}
	if rho := AtmosphereDensity(500); rho < 1e-13 || rho > 3e-12 {
		t.Errorf("density(500 km) = %v, want ≈7e-13", rho)
	}
}

// sudcBody is a 2000 kg SµDC with large solar arrays.
var sudcBody = DragBody{MassKg: 2000, AreaM2: 40}

// cubesatBody is a 4 kg 3U cubesat.
var cubesatBody = DragBody{MassKg: 4, AreaM2: 0.03}

func TestDragBodyValidate(t *testing.T) {
	// Default Cd is 2.2.
	if bc := (DragBody{MassKg: 1, AreaM2: 1}).BallisticCoefficient(); math.Abs(bc-2.2) > 1e-12 {
		t.Errorf("default ballistic coefficient = %v, want 2.2", bc)
	}
}

func TestDecayRateOrdering(t *testing.T) {
	// Lower orbits decay faster; heavier/denser bodies decay slower.
	if sudcBody.DecayRateKmPerYear(400) <= sudcBody.DecayRateKmPerYear(550) {
		t.Error("400 km should decay faster than 550 km")
	}
	dense := DragBody{MassKg: 2000, AreaM2: 4}
	if dense.DecayRateKmPerYear(550) >= sudcBody.DecayRateKmPerYear(550) {
		t.Error("lower area-to-mass should decay slower")
	}
}

func TestLifetimeRanges(t *testing.T) {
	// A 3U cubesat at 400 km: months to a few years.
	if y := cubesatBody.LifetimeYears(400, 0); y < 0.1 || y > 6 {
		t.Errorf("cubesat lifetime at 400 km = %v yr, want O(1)", y)
	}
	// The same cubesat at 550 km: several years to a couple decades.
	y550 := cubesatBody.LifetimeYears(550, 0)
	if y550 < 2 || y550 > 60 {
		t.Errorf("cubesat lifetime at 550 km = %v yr, want O(10)", y550)
	}
	// Higher orbit must outlive the lower one.
	if y550 <= cubesatBody.LifetimeYears(400, 0) {
		t.Error("550 km must outlive 400 km")
	}
	// At 900 km lifetime hits the cap — "no boosting needed" territory.
	if y := cubesatBody.LifetimeYears(900, 200); y < 200 {
		t.Errorf("900 km lifetime = %v yr, want capped 200", y)
	}
}

func TestBoostBudget(t *testing.T) {
	// SµDC at 550 km: a few m/s per year of drag make-up (§9: LEO SµDCs
	// need boosting; GEO needs almost none).
	dv := sudcBody.BoostDeltaVPerYear(550)
	if dv < 0.5 || dv > 30 {
		t.Errorf("550 km boost budget = %v m/s/yr, want single digits", dv)
	}
	// At 400 km (ISS altitude) it is an order of magnitude worse.
	if r := sudcBody.BoostDeltaVPerYear(400) / dv; r < 3 {
		t.Errorf("400/550 km boost ratio = %v, want ≫ 1", r)
	}
	// At GEO altitude the static atmosphere is essentially gone.
	if g := sudcBody.BoostDeltaVPerYear(GeostationaryAltitudeKm); g > 1e-6 {
		t.Errorf("GEO drag make-up = %v m/s/yr, want ≈0", g)
	}
}

func TestHohmannKnownValues(t *testing.T) {
	// LEO (550 km) → GEO: ≈3.9 km/s total.
	dv := HohmannDeltaV(550, GeostationaryAltitudeKm)
	if math.Abs(dv-3900) > 150 {
		t.Errorf("LEO→GEO Hohmann = %v m/s, want ≈3900", dv)
	}
	// Symmetric and zero on the diagonal.
	if HohmannDeltaV(550, 550) != 0 {
		t.Error("same-orbit transfer should be free")
	}
	up := HohmannDeltaV(550, 800)
	down := HohmannDeltaV(800, 550)
	if math.Abs(up-down) > 1e-9 {
		t.Errorf("Hohmann up %v vs down %v should match", up, down)
	}
}

func TestDisposalDeltaV(t *testing.T) {
	// Deorbiting from 550 km to a 50 km perigee costs ≈140 m/s.
	dv := DisposalDeltaV(550, 50)
	if dv < 100 || dv > 200 {
		t.Errorf("disposal burn = %v m/s, want ≈140", dv)
	}
	// Raising the perigee is not a disposal: zero.
	if DisposalDeltaV(550, 600) != 0 {
		t.Error("perigee above orbit should cost nothing")
	}
	// Disposal from lower orbits is cheaper.
	if DisposalDeltaV(400, 50) >= dv {
		t.Error("lower orbit should deorbit cheaper")
	}
}

func TestGraveyardDeltaV(t *testing.T) {
	// GEO graveyard re-orbit (+300 km) is famously cheap: ~11 m/s.
	dv := GraveyardDeltaV()
	if dv < 5 || dv > 20 {
		t.Errorf("graveyard burn = %v m/s, want ≈11", dv)
	}
	// Versus deorbiting GEO entirely (~1500 m/s) — why graveyards exist.
	deorbit := DisposalDeltaV(GeostationaryAltitudeKm, 50)
	if deorbit < 50*dv {
		t.Errorf("GEO deorbit %v m/s should dwarf graveyard %v m/s", deorbit, dv)
	}
}

func TestLifetimeMonotoneInBallisticCoefficient(t *testing.T) {
	light := DragBody{MassKg: 10, AreaM2: 1}
	heavy := DragBody{MassKg: 1000, AreaM2: 1}
	if light.LifetimeYears(500, 0) >= heavy.LifetimeYears(500, 0) {
		t.Error("higher area-to-mass must decay sooner")
	}
}
