package orbit

import (
	"math"
	"testing"
	"time"
)

func TestSunPositionDistance(t *testing.T) {
	// Earth–Sun distance stays within [0.983, 1.017] AU year-round.
	for month := time.January; month <= time.December; month++ {
		tm := time.Date(2026, month, 15, 0, 0, 0, 0, time.UTC)
		dAU := SunPositionECI(tm).Norm() / AstronomicalUnitKm
		if dAU < 0.982 || dAU > 1.018 {
			t.Errorf("%v: sun distance %v AU out of range", month, dAU)
		}
	}
}

func TestSunDeclinationSeasons(t *testing.T) {
	decl := func(tm time.Time) float64 {
		p := SunPositionECI(tm)
		return math.Asin(p.Z/p.Norm()) * 180 / math.Pi
	}
	// June solstice: declination ≈ +23.44°.
	if d := decl(time.Date(2026, 6, 21, 12, 0, 0, 0, time.UTC)); math.Abs(d-23.44) > 0.3 {
		t.Errorf("June solstice declination = %v°, want ≈23.44", d)
	}
	// December solstice: ≈ -23.44°.
	if d := decl(time.Date(2026, 12, 21, 12, 0, 0, 0, time.UTC)); math.Abs(d+23.44) > 0.3 {
		t.Errorf("December solstice declination = %v°, want ≈-23.44", d)
	}
	// March equinox: ≈ 0°.
	if d := decl(time.Date(2026, 3, 20, 12, 0, 0, 0, time.UTC)); math.Abs(d) > 0.6 {
		t.Errorf("March equinox declination = %v°, want ≈0", d)
	}
}

func TestShadowGeometry(t *testing.T) {
	tm := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	sun := SunPositionECI(tm).Unit()

	// Directly between Earth and Sun: sunlit.
	dayside := sun.Scale(EarthRadiusKm + 550)
	if got := Shadow(dayside, tm); got != Sunlit {
		t.Errorf("dayside satellite: %v, want sunlit", got)
	}
	// Anti-sun direction at LEO altitude: umbra.
	nightside := sun.Scale(-(EarthRadiusKm + 550))
	if got := Shadow(nightside, tm); got != Umbra {
		t.Errorf("nightside satellite: %v, want umbra", got)
	}
	// Anti-sun direction far beyond the umbra cone tip (~1.4M km): sunlit
	// again (the cone converges).
	farBehind := sun.Scale(-2.0e6)
	if got := Shadow(farBehind, tm); got == Umbra {
		t.Errorf("2M km behind Earth should not be in umbra")
	}
}

func TestShadowStateString(t *testing.T) {
	if Sunlit.String() != "sunlit" || Penumbra.String() != "penumbra" || Umbra.String() != "umbra" {
		t.Error("ShadowState names wrong")
	}
	if ShadowState(99).String() != "unknown" {
		t.Error("unknown state should stringify as unknown")
	}
}

func TestLEOEclipseFractionAboutOneThird(t *testing.T) {
	// The paper: "LEO satellites spend ~1/3 of their time eclipsed."
	// Pick a low-beta geometry: equatorial orbit at an equinox.
	epoch := time.Date(2026, 3, 20, 0, 0, 0, 0, time.UTC)
	el := CircularLEO(550, 0, 0, 0, epoch)
	frac := EclipseFraction(el, epoch, el.Period(), 15*time.Second)
	// Geometric maximum at 550 km: asin(Re/r)/π ≈ 0.372.
	if frac < 0.30 || frac > 0.42 {
		t.Errorf("equatorial LEO eclipse fraction = %v, want ≈1/3", frac)
	}
}

func TestGEOEclipseSeasonal(t *testing.T) {
	// The paper: GEO satellites see eclipse only for weeks around the
	// equinoxes, < ~70 min/day; at solstices, none.
	equinox := time.Date(2026, 3, 20, 0, 0, 0, 0, time.UTC)
	solstice := time.Date(2026, 6, 21, 0, 0, 0, 0, time.UTC)

	geo := Geostationary(0, equinox)
	atEquinox := EclipseFraction(geo, equinox, 24*time.Hour, 2*time.Minute) * 24 * 60
	if atEquinox < 20 || atEquinox > 90 {
		t.Errorf("GEO equinox eclipse = %v min/day, want ≈70", atEquinox)
	}

	geoS := Geostationary(0, solstice)
	atSolstice := EclipseFraction(geoS, solstice, 24*time.Hour, 2*time.Minute) * 24 * 60
	if atSolstice != 0 {
		t.Errorf("GEO solstice eclipse = %v min/day, want 0", atSolstice)
	}
}

func TestHighBetaOrbitNoEclipse(t *testing.T) {
	// A dawn-dusk SSO (orbit plane ⟂ sun line) at 800 km should see no or
	// almost no eclipse. Build it by aligning RAAN with the sun's RA + 90°.
	epoch := time.Date(2026, 3, 20, 12, 0, 0, 0, time.UTC)
	sun := SunPositionECI(epoch)
	sunRA := math.Atan2(sun.Y, sun.X)
	el, ok := SunSynchronous(800, sunRA+math.Pi/2, 0, epoch)
	if !ok {
		t.Fatal("no SSO at 800 km?")
	}
	frac := EclipseFraction(el, epoch, el.Period(), 15*time.Second)
	if frac > 0.05 {
		t.Errorf("dawn-dusk SSO eclipse fraction = %v, want ≈0", frac)
	}
}

func TestEclipseFractionDegenerate(t *testing.T) {
	el := CircularLEO(550, 0, 0, 0, testEpoch)
	if got := EclipseFraction(el, testEpoch, 0, time.Second); got != 0 {
		t.Errorf("zero span should give 0, got %v", got)
	}
	if got := EclipseFraction(el, testEpoch, time.Hour, 0); got != 0 {
		t.Errorf("zero step should give 0, got %v", got)
	}
}
