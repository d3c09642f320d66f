package orbit

import (
	"math"
	"testing"
	"time"

	"spacedc/internal/vecmath"
)

func TestJulianDateJ2000(t *testing.T) {
	if got := JulianDate(J2000); got != 2451545.0 {
		t.Errorf("JD(J2000) = %v, want 2451545.0", got)
	}
}

func TestJulianDateKnownValues(t *testing.T) {
	cases := []struct {
		t    time.Time
		want float64
	}{
		// Sputnik launch: 1957-10-04 19:26:24 UTC → JD 2436116.31
		{time.Date(1957, 10, 4, 19, 26, 24, 0, time.UTC), 2436116.31},
		// 2023-10-30 00:00 UTC (during MICRO'23) → JD 2460247.5
		{time.Date(2023, 10, 30, 0, 0, 0, 0, time.UTC), 2460247.5},
	}
	for _, c := range cases {
		if got := JulianDate(c.t); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("JD(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestJulianDateMonotonic(t *testing.T) {
	t0 := time.Date(2026, 2, 27, 23, 0, 0, 0, time.UTC)
	prev := JulianDate(t0)
	for i := 1; i < 72; i++ {
		cur := JulianDate(t0.Add(time.Duration(i) * time.Hour))
		if cur <= prev {
			t.Fatalf("JD not monotonic at +%dh: %v <= %v", i, cur, prev)
		}
		if math.Abs((cur-prev)-1.0/24) > 1e-9 {
			t.Fatalf("JD step at +%dh = %v days, want 1/24", i, cur-prev)
		}
		prev = cur
	}
}

func TestGMSTJ2000(t *testing.T) {
	// GMST at J2000 epoch is 280.46062°.
	want := 280.46062 * math.Pi / 180
	if got := GMST(J2000); math.Abs(got-want) > 1e-4 {
		t.Errorf("GMST(J2000) = %v rad, want %v", got, want)
	}
}

func TestGMSTAdvancesSidereally(t *testing.T) {
	t0 := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	g0 := GMST(t0)
	// After one sidereal day (86164.0905 s) GMST returns to the same value.
	g1 := GMST(t0.Add(time.Duration(86164.0905 * float64(time.Second))))
	if d := math.Abs(vecmath.WrapPi(g1 - g0)); d > 1e-5 {
		t.Errorf("GMST after sidereal day differs by %v rad", d)
	}
	// After one solar day it advances by ~0.9856° ≈ 0.0172 rad.
	g24 := GMST(t0.Add(24 * time.Hour))
	adv := vecmath.WrapTwoPi(g24 - g0)
	if math.Abs(adv-0.0172) > 1e-3 {
		t.Errorf("GMST solar-day advance = %v rad, want ≈0.0172", adv)
	}
}

// ecefToECI rotates an ECEF position to ECI at time t, the inverse of
// ECIToECEF.
func ecefToECI(p vecmath.Vec3, t time.Time) vecmath.Vec3 {
	g := GMST(t)
	c, s := math.Cos(g), math.Sin(g)
	return vecmath.Vec3{
		X: c*p.X - s*p.Y,
		Y: s*p.X + c*p.Y,
		Z: p.Z,
	}
}

func TestECIECEFRoundTrip(t *testing.T) {
	tm := time.Date(2026, 3, 14, 15, 9, 26, 0, time.UTC)
	p := vecmath.Vec3{X: 7000, Y: -1234, Z: 4321}
	back := ecefToECI(ECIToECEF(p, tm), tm)
	if d := p.DistanceTo(back); d > 1e-9 {
		t.Errorf("ECI→ECEF→ECI differs by %v km", d)
	}
}

func TestGeodeticRoundTrip(t *testing.T) {
	cases := []Geodetic{
		{LatRad: 0, LonRad: 0, AltKm: 0},
		{LatRad: 40.1 * math.Pi / 180, LonRad: -88.2 * math.Pi / 180, AltKm: 0.2}, // Urbana, IL
		{LatRad: -77.8 * math.Pi / 180, LonRad: 166.7 * math.Pi / 180, AltKm: 0},  // McMurdo
		{LatRad: 89 * math.Pi / 180, LonRad: 10 * math.Pi / 180, AltKm: 500},
		{LatRad: -89 * math.Pi / 180, LonRad: -170 * math.Pi / 180, AltKm: 35786},
	}
	for i, g := range cases {
		back := ECEFToGeodetic(g.ECEF())
		if math.Abs(back.LatRad-g.LatRad) > 1e-9 ||
			math.Abs(vecmath.WrapPi(back.LonRad-g.LonRad)) > 1e-9 ||
			math.Abs(back.AltKm-g.AltKm) > 1e-6 {
			t.Errorf("case %d: round trip %+v → %+v", i, g, back)
		}
	}
}

func TestECEFEquatorialRadius(t *testing.T) {
	p := Geodetic{LatRad: 0, LonRad: 0, AltKm: 0}.ECEF()
	if math.Abs(p.X-EarthRadiusKm) > 1e-6 || p.Y != 0 || p.Z != 0 {
		t.Errorf("equatorial point = %v, want (%v, 0, 0)", p, EarthRadiusKm)
	}
}

func TestECEFPolarRadius(t *testing.T) {
	p := Geodetic{LatRad: math.Pi / 2, LonRad: 0, AltKm: 0}.ECEF()
	// Polar radius = a(1 - f) ≈ 6356.75 km.
	wantZ := EarthRadiusKm * (1 - EarthFlattening)
	if math.Abs(p.Z-wantZ) > 0.01 {
		t.Errorf("polar Z = %v, want %v", p.Z, wantZ)
	}
	if math.Hypot(p.X, p.Y) > 1e-6 {
		t.Errorf("polar point off axis: %v", p)
	}
}

func TestLineOfSight(t *testing.T) {
	r := EarthRadiusKm
	cases := []struct {
		name  string
		a, b  vecmath.Vec3
		graze float64
		want  bool
	}{
		{"opposite sides blocked", vecmath.Vec3{X: r + 550}, vecmath.Vec3{X: -(r + 550)}, 0, false},
		{"same side visible", vecmath.Vec3{X: r + 550}, vecmath.Vec3{X: r + 600, Y: 100}, 0, true},
		// Two satellites 30° apart at 550 km: chord closest approach is
		// (r+550)·cos15° ≈ 6692 km > Earth radius, so visible.
		{"adjacent in orbit visible", vecmath.Vec3{X: r + 550},
			vecmath.Vec3{X: (r + 550) * 0.8660, Y: (r + 550) * 0.5}, 0, true},
		// The same two satellites 90° apart dip the chord to ~4899 km: blocked.
		{"quarter-orbit apart blocked", vecmath.Vec3{X: r + 550}, vecmath.Vec3{Y: r + 550}, 0, false},
		{"grazing margin blocks", vecmath.Vec3{X: r + 50, Y: -4000}, vecmath.Vec3{X: r + 50, Y: 4000}, 100, false},
		{"GEO sees near LEO", vecmath.Vec3{X: r + 35786}, vecmath.Vec3{Y: r + 550}, 100, true},
		{"GEO blocked to far LEO", vecmath.Vec3{X: r + 35786}, vecmath.Vec3{X: -(r + 550)}, 100, false},
		{"degenerate same point", vecmath.Vec3{X: r + 550}, vecmath.Vec3{X: r + 550}, 0, true},
	}
	for _, c := range cases {
		if got := LineOfSight(c.a, c.b, c.graze); got != c.want {
			t.Errorf("%s: LineOfSight = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestElevationAngle(t *testing.T) {
	obs := vecmath.Vec3{X: EarthRadiusKm}
	// Satellite directly overhead: 90°.
	if got := ElevationAngle(obs, vecmath.Vec3{X: EarthRadiusKm + 550}); math.Abs(got-math.Pi/2) > 1e-9 {
		t.Errorf("zenith elevation = %v, want π/2", got)
	}
	// Satellite on the horizon plane: ≈0°.
	if got := ElevationAngle(obs, vecmath.Vec3{X: EarthRadiusKm, Y: 1000}); math.Abs(got) > 1e-9 {
		t.Errorf("horizon elevation = %v, want 0", got)
	}
	// Satellite below: negative.
	if got := ElevationAngle(obs, vecmath.Vec3{X: EarthRadiusKm / 2, Y: 3000}); got >= 0 {
		t.Errorf("below-horizon elevation = %v, want < 0", got)
	}
}
