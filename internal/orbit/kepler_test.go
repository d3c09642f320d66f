package orbit

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

var testEpoch = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// AltitudeKm returns the geocentric altitude of the state above the
// spherical Earth, in km.
func (s State) AltitudeKm() float64 { return s.Position.Norm() - EarthRadiusKm }

func TestSolveKeplerProperty(t *testing.T) {
	f := func(m, eRaw float64) bool {
		if math.IsNaN(m) || math.IsInf(m, 0) {
			return true
		}
		m = math.Mod(m, 100) // keep revolutions reasonable
		ecc := math.Abs(math.Mod(eRaw, 0.95))
		ea := SolveKepler(m, ecc)
		// Kepler's equation must hold.
		return math.Abs(ea-ecc*math.Sin(ea)-m) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSolveKeplerCircular(t *testing.T) {
	if got := SolveKepler(1.234, 0); got != 1.234 {
		t.Errorf("circular orbit: E = %v, want M = 1.234", got)
	}
}

func TestSolveKeplerHighEccentricity(t *testing.T) {
	// Near-parabolic orbits are the hard case for Kepler solvers.
	for _, ecc := range []float64{0.9, 0.95, 0.99, 0.999} {
		for m := 0.01; m < 2*math.Pi; m += 0.37 {
			ea := SolveKepler(m, ecc)
			if resid := math.Abs(ea - ecc*math.Sin(ea) - m); resid > 1e-8 {
				t.Errorf("e=%v M=%v: residual %v", ecc, m, resid)
			}
		}
	}
}

func TestAnomalyRoundTrip(t *testing.T) {
	f := func(nuRaw, eRaw float64) bool {
		if math.IsNaN(nuRaw) || math.IsInf(nuRaw, 0) {
			return true
		}
		nu := math.Mod(nuRaw, math.Pi) // stay off the ±π branch cut
		ecc := math.Abs(math.Mod(eRaw, 0.9))
		ea := TrueToEccentric(nu, ecc)
		back := EccentricToTrue(ea, ecc)
		return math.Abs(back-nu) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCircularLEOVelocity(t *testing.T) {
	el := CircularLEO(550, 53*math.Pi/180, 0, 0, testEpoch)
	s := el.StateAt(testEpoch)
	// v = sqrt(µ/r) ≈ 7.585 km/s at 550 km.
	want := math.Sqrt(EarthMuKm3S2 / el.SemiMajorKm)
	if got := s.Velocity.Norm(); math.Abs(got-want) > 1e-9 {
		t.Errorf("circular velocity = %v km/s, want %v", got, want)
	}
	if got := s.AltitudeKm(); math.Abs(got-550) > 1e-6 {
		t.Errorf("altitude = %v km, want 550", got)
	}
}

func TestPeriodISS(t *testing.T) {
	el := CircularLEO(420, 51.6*math.Pi/180, 0, 0, testEpoch)
	// ISS orbital period is about 92.8 minutes.
	if got := el.Period().Minutes(); math.Abs(got-92.8) > 0.5 {
		t.Errorf("420 km period = %v min, want ≈92.8", got)
	}
}

func TestGeostationaryPeriod(t *testing.T) {
	el := Geostationary(0, testEpoch)
	// Sidereal day: 86164.1 s.
	if got := el.Period().Seconds(); math.Abs(got-86164.1) > 5 {
		t.Errorf("GEO period = %v s, want ≈86164", got)
	}
	if got := el.SemiMajorKm - EarthRadiusKm; math.Abs(got-GeostationaryAltitudeKm) > 30 {
		t.Errorf("GEO altitude = %v km, want ≈35786", got)
	}
}

func TestGeostationaryStaysPut(t *testing.T) {
	el := Geostationary(30*math.Pi/180, testEpoch)
	for _, dt := range []time.Duration{0, 6 * time.Hour, 12 * time.Hour, 23 * time.Hour} {
		tm := testEpoch.Add(dt)
		sp := SubPoint(el.StateAt(tm).Position, tm)
		if math.Abs(sp.LonDeg()-30) > 0.1 {
			t.Errorf("at +%v: sub-longitude = %v°, want 30°", dt, sp.LonDeg())
		}
		if math.Abs(sp.LatDeg()) > 0.1 {
			t.Errorf("at +%v: sub-latitude = %v°, want 0°", dt, sp.LatDeg())
		}
	}
}

func TestStateAtPeriodic(t *testing.T) {
	el := CircularLEO(700, 98*math.Pi/180, 1.0, 0.5, testEpoch)
	s0 := el.StateAt(testEpoch)
	s1 := el.StateAt(testEpoch.Add(el.Period()))
	if d := s0.Position.DistanceTo(s1.Position); d > 1 {
		t.Errorf("position after one period differs by %v km", d)
	}
}

func TestElementsStateRoundTrip(t *testing.T) {
	cases := []Elements{
		CircularLEO(550, 53*math.Pi/180, 0.3, 1.2, testEpoch),
		{Epoch: testEpoch, SemiMajorKm: 8000, Eccentricity: 0.1,
			InclinationRad: 0.9, RAANRad: 2.2, ArgPerigeeRad: 1.1, MeanAnomalyRad: 0.7},
		{Epoch: testEpoch, SemiMajorKm: 26560, Eccentricity: 0.01,
			InclinationRad: 55 * math.Pi / 180, RAANRad: 4.0, ArgPerigeeRad: 0.2, MeanAnomalyRad: 3.3},
	}
	for i, el := range cases {
		s := el.StateAt(testEpoch)
		got, err := ElementsFromState(s, testEpoch)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if math.Abs(got.SemiMajorKm-el.SemiMajorKm) > 1e-3 {
			t.Errorf("case %d: a = %v, want %v", i, got.SemiMajorKm, el.SemiMajorKm)
		}
		if math.Abs(got.Eccentricity-el.Eccentricity) > 1e-6 {
			t.Errorf("case %d: e = %v, want %v", i, got.Eccentricity, el.Eccentricity)
		}
		if math.Abs(got.InclinationRad-el.InclinationRad) > 1e-6 {
			t.Errorf("case %d: i = %v, want %v", i, got.InclinationRad, el.InclinationRad)
		}
		// Re-propagating the recovered elements must land on the same state.
		s2 := got.StateAt(testEpoch)
		if d := s.Position.DistanceTo(s2.Position); d > 0.01 {
			t.Errorf("case %d: round-trip position differs by %v km", i, d)
		}
	}
}

func TestElementsFromStateEnergyCheck(t *testing.T) {
	// A hyperbolic state must be rejected.
	s := State{}
	s.Position.X = 7000
	s.Velocity.Y = 12 // above escape velocity at 7000 km
	if _, err := ElementsFromState(s, testEpoch); err == nil {
		t.Error("hyperbolic state should be rejected")
	}
	if _, err := ElementsFromState(State{}, testEpoch); err == nil {
		t.Error("zero state should be rejected")
	}
}

func TestValidate(t *testing.T) {
	good := CircularLEO(550, 1, 0, 0, testEpoch)
	if err := good.Validate(); err != nil {
		t.Errorf("valid orbit rejected: %v", err)
	}
	bad := good
	bad.Eccentricity = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("hyperbolic eccentricity accepted")
	}
	crash := good
	crash.SemiMajorKm = 6000
	if err := crash.Validate(); err == nil {
		t.Error("sub-surface orbit accepted")
	}
	tilted := good
	tilted.InclinationRad = 4
	if err := tilted.Validate(); err == nil {
		t.Error("inclination > π accepted")
	}
}

func TestPerigeeApogee(t *testing.T) {
	el := Elements{SemiMajorKm: 10000, Eccentricity: 0.2}
	if got := el.PerigeeAltKm(); math.Abs(got-(8000-EarthRadiusKm)) > 1e-9 {
		t.Errorf("perigee alt = %v", got)
	}
}

func TestAngularMomentumConservation(t *testing.T) {
	el := Elements{Epoch: testEpoch, SemiMajorKm: 9000, Eccentricity: 0.15,
		InclinationRad: 1.1, RAANRad: 0.4, ArgPerigeeRad: 2.0, MeanAnomalyRad: 0}
	h0 := el.StateAt(testEpoch).Position.Cross(el.StateAt(testEpoch).Velocity)
	for dt := time.Minute; dt < 3*time.Hour; dt += 17 * time.Minute {
		s := el.StateAt(testEpoch.Add(dt))
		h := s.Position.Cross(s.Velocity)
		if d := h.Sub(h0).Norm() / h0.Norm(); d > 1e-9 {
			t.Fatalf("angular momentum drifted by %v at +%v", d, dt)
		}
	}
}

func TestVisVivaEnergy(t *testing.T) {
	el := Elements{Epoch: testEpoch, SemiMajorKm: 12000, Eccentricity: 0.3,
		InclinationRad: 0.5, MeanAnomalyRad: 1}
	want := -EarthMuKm3S2 / (2 * el.SemiMajorKm)
	for dt := time.Duration(0); dt < 4*time.Hour; dt += 31 * time.Minute {
		s := el.StateAt(testEpoch.Add(dt))
		got := s.Velocity.NormSq()/2 - EarthMuKm3S2/s.Position.Norm()
		if math.Abs(got-want)/math.Abs(want) > 1e-9 {
			t.Fatalf("specific energy %v, want %v at +%v", got, want, dt)
		}
	}
}
