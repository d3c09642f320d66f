package orbit

import (
	"math"
	"time"

	"spacedc/internal/vecmath"
)

// JulianDate returns the Julian date of t (UTC).
func JulianDate(t time.Time) float64 {
	t = t.UTC()
	y := t.Year()
	m := int(t.Month())
	d := t.Day()
	if m <= 2 {
		y--
		m += 12
	}
	a := y / 100
	b := 2 - a + a/4
	jd0 := math.Floor(365.25*float64(y+4716)) +
		math.Floor(30.6001*float64(m+1)) +
		float64(d) + float64(b) - 1524.5
	dayFrac := (float64(t.Hour()) +
		float64(t.Minute())/60 +
		(float64(t.Second())+float64(t.Nanosecond())/1e9)/3600) / 24
	return jd0 + dayFrac
}

// J2000 is the standard epoch 2000 January 1 12:00 TT (treated as UTC here).
var J2000 = time.Date(2000, 1, 1, 12, 0, 0, 0, time.UTC)

// JulianCenturiesSinceJ2000 returns Julian centuries elapsed since J2000.
func JulianCenturiesSinceJ2000(t time.Time) float64 {
	return (JulianDate(t) - 2451545.0) / 36525.0
}

// GMST returns the Greenwich mean sidereal time at t, in radians in [0, 2π).
// It uses the IAU 1982 expression, which is accurate to well under an
// arcsecond over the decades around J2000.
func GMST(t time.Time) float64 {
	jd := JulianDate(t)
	tu := (jd - 2451545.0) / 36525.0
	// Seconds of sidereal time.
	gmstSec := 67310.54841 +
		(876600*3600+8640184.812866)*tu +
		0.093104*tu*tu -
		6.2e-6*tu*tu*tu
	gmstSec = math.Mod(gmstSec, 86400)
	if gmstSec < 0 {
		gmstSec += 86400
	}
	return gmstSec * (2 * math.Pi / 86400)
}

// ECIToECEF rotates an ECI position to ECEF at time t (rotation about the
// Z axis by GMST; polar motion and nutation are ignored).
func ECIToECEF(p vecmath.Vec3, t time.Time) vecmath.Vec3 {
	g := GMST(t)
	c, s := math.Cos(g), math.Sin(g)
	return vecmath.Vec3{
		X: c*p.X + s*p.Y,
		Y: -s*p.X + c*p.Y,
		Z: p.Z,
	}
}
