// Package orbit implements the orbital mechanics substrate for the space
// microdatacenter study: Keplerian two-body and J2-perturbed propagation, a
// simplified SGP4 propagator with TLE parsing, solar position and eclipse
// geometry, ground tracks, and line-of-sight / in-view-period computation
// between satellites and between satellites and ground stations.
//
// Conventions: positions and velocities are in the Earth-centered inertial
// (ECI, true-equator mean-equinox) frame, kilometers and km/s; angles are
// radians; times are UTC time.Time values (the UT1–UTC distinction is far
// below the fidelity this study needs).
package orbit

import (
	"math"

	"spacedc/internal/vecmath"
)

// Physical constants (WGS-72 values, the set SGP4 is defined against; the
// difference from WGS-84 is irrelevant at this study's fidelity).
const (
	// EarthRadiusKm is Earth's equatorial radius in km.
	EarthRadiusKm = 6378.135
	// EarthMuKm3S2 is Earth's gravitational parameter in km³/s².
	EarthMuKm3S2 = 398600.8
	// EarthJ2 is the second zonal harmonic of Earth's gravity field.
	EarthJ2 = 1.082616e-3
	// EarthFlattening is the WGS-84 flattening factor used for geodetic
	// coordinates.
	EarthFlattening = 1 / 298.257223563
	// EarthRotationRateRadS is Earth's sidereal rotation rate in rad/s.
	EarthRotationRateRadS = 7.2921158553e-5
	// GeostationaryAltitudeKm is the altitude of a geostationary orbit.
	GeostationaryAltitudeKm = 35786.0
	// AtmosphereGrazeKm is the altitude below which an optical ISL path is
	// considered blocked or badly degraded by the atmosphere. Paths that
	// graze below ~100 km hit dense atmosphere; the paper notes turbulence
	// fading before outright blockage.
	AtmosphereGrazeKm = 100.0
	// AstronomicalUnitKm is one AU in km.
	AstronomicalUnitKm = 149597870.7
	// SunRadiusKm is the solar photospheric radius in km.
	SunRadiusKm = 695700.0
)

// Geodetic is a position on or above the WGS-84 ellipsoid.
type Geodetic struct {
	LatRad float64 // geodetic latitude, radians, +north
	LonRad float64 // longitude, radians, +east, in (-π, π]
	AltKm  float64 // height above the ellipsoid, km
}

// LatDeg returns the latitude in degrees.
func (g Geodetic) LatDeg() float64 { return g.LatRad * 180 / math.Pi }

// LonDeg returns the longitude in degrees.
func (g Geodetic) LonDeg() float64 { return g.LonRad * 180 / math.Pi }

// ECEF converts the geodetic position to Earth-centered Earth-fixed
// Cartesian coordinates in km.
func (g Geodetic) ECEF() vecmath.Vec3 {
	sinLat := math.Sin(g.LatRad)
	cosLat := math.Cos(g.LatRad)
	e2 := EarthFlattening * (2 - EarthFlattening)
	n := EarthRadiusKm / math.Sqrt(1-e2*sinLat*sinLat)
	return vecmath.Vec3{
		X: (n + g.AltKm) * cosLat * math.Cos(g.LonRad),
		Y: (n + g.AltKm) * cosLat * math.Sin(g.LonRad),
		Z: (n*(1-e2) + g.AltKm) * sinLat,
	}
}

// ECEFToGeodetic converts an ECEF position in km to geodetic coordinates
// using Bowring's iteration (converges in a handful of rounds for any
// point outside Earth's core).
func ECEFToGeodetic(p vecmath.Vec3) Geodetic {
	e2 := EarthFlattening * (2 - EarthFlattening)
	lon := math.Atan2(p.Y, p.X)
	rho := math.Hypot(p.X, p.Y)
	// Initial guess assumes spherical Earth.
	lat := math.Atan2(p.Z, rho*(1-e2))
	var alt float64
	for i := 0; i < 8; i++ {
		sinLat := math.Sin(lat)
		n := EarthRadiusKm / math.Sqrt(1-e2*sinLat*sinLat)
		alt = rho/math.Cos(lat) - n
		newLat := math.Atan2(p.Z, rho*(1-e2*n/(n+alt)))
		if math.Abs(newLat-lat) < 1e-12 {
			lat = newLat
			break
		}
		lat = newLat
	}
	return Geodetic{LatRad: lat, LonRad: lon, AltKm: alt}
}

// LineOfSight reports whether two ECI (or consistently ECEF) positions in km
// can see each other without the sight line passing below grazeAltKm above
// Earth's (spherical) surface. Pass 0 to test against the hard surface.
func LineOfSight(a, b vecmath.Vec3, grazeAltKm float64) bool {
	blockR := EarthRadiusKm + grazeAltKm
	d := b.Sub(a)
	dd := d.NormSq()
	if dd == 0 {
		return true
	}
	// Parameter of the closest point on segment a→b to the geocenter.
	t := -a.Dot(d) / dd
	if t <= 0 {
		return a.Norm() > blockR
	}
	if t >= 1 {
		return b.Norm() > blockR
	}
	closest := a.Add(d.Scale(t))
	return closest.Norm() > blockR
}

// ElevationAngle returns the elevation in radians of target above the local
// horizon at the observer position (both ECEF, km). Negative values mean
// below the horizon. The observer's zenith is approximated by its geocentric
// radial, which is accurate to a fraction of a degree for ground stations.
func ElevationAngle(observer, target vecmath.Vec3) float64 {
	los := target.Sub(observer)
	if los.IsZero() || observer.IsZero() {
		return 0
	}
	zenith := observer.Unit()
	s := los.Unit().Dot(zenith)
	return math.Asin(vecmath.Clamp(s, -1, 1))
}
