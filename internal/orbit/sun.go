package orbit

import (
	"math"
	"time"

	"spacedc/internal/vecmath"
)

// SunPositionECI returns the apparent geocentric position of the Sun in the
// ECI frame at time t, in km. The low-precision series (Meeus / Astronomical
// Almanac) is accurate to about 0.01°, far better than eclipse analysis
// needs.
func SunPositionECI(t time.Time) vecmath.Vec3 {
	tc := JulianCenturiesSinceJ2000(t)

	// Mean longitude and mean anomaly of the Sun, degrees.
	meanLon := math.Mod(280.460+36000.771*tc, 360)
	meanAnom := math.Mod(357.5291092+35999.05034*tc, 360) * math.Pi / 180

	// Ecliptic longitude with equation of center.
	eclLon := (meanLon +
		1.914666471*math.Sin(meanAnom) +
		0.019994643*math.Sin(2*meanAnom)) * math.Pi / 180

	// Distance in AU.
	rAU := 1.000140612 - 0.016708617*math.Cos(meanAnom) - 0.000139589*math.Cos(2*meanAnom)

	// Obliquity of the ecliptic.
	obliq := (23.439291 - 0.0130042*tc) * math.Pi / 180

	rKm := rAU * AstronomicalUnitKm
	sinLon := math.Sin(eclLon)
	return vecmath.Vec3{
		X: rKm * math.Cos(eclLon),
		Y: rKm * math.Cos(obliq) * sinLon,
		Z: rKm * math.Sin(obliq) * sinLon,
	}
}

// ShadowState classifies a satellite's illumination.
type ShadowState int

// Shadow states, from full sun to full shadow.
const (
	Sunlit ShadowState = iota
	Penumbra
	Umbra
)

// String returns the name of the shadow state.
func (s ShadowState) String() string {
	switch s {
	case Sunlit:
		return "sunlit"
	case Penumbra:
		return "penumbra"
	case Umbra:
		return "umbra"
	default:
		return "unknown"
	}
}

// Shadow returns the illumination state of an ECI position (km) at time t
// using a conical Earth-shadow model with the Sun's finite disk.
func Shadow(pos vecmath.Vec3, t time.Time) ShadowState {
	sun := SunPositionECI(t)
	return shadowWithSun(pos, sun)
}

// shadowWithSun is Shadow with a precomputed sun vector, so callers sampling
// many satellites at one instant don't recompute the solar position.
func shadowWithSun(pos, sun vecmath.Vec3) ShadowState {
	// Angle subtended by the Sun and by the Earth as seen from the satellite.
	toSun := sun.Sub(pos)
	dSun := toSun.Norm()
	dEarth := pos.Norm()
	if dEarth <= EarthRadiusKm {
		return Umbra // inside Earth: degenerate, treat as shadowed
	}

	thetaSun := math.Asin(vecmath.Clamp(SunRadiusKm/dSun, -1, 1))
	thetaEarth := math.Asin(vecmath.Clamp(EarthRadiusKm/dEarth, -1, 1))
	// Angular separation between Earth's center and the Sun's center as
	// seen from the satellite.
	sep := toSun.AngleTo(pos.Neg())

	switch {
	case sep >= thetaEarth+thetaSun:
		return Sunlit
	case sep <= thetaEarth-thetaSun:
		return Umbra
	default:
		return Penumbra
	}
}

// EclipseFraction propagates the orbit over the window [start, start+span]
// with the given sample step and returns the fraction of samples in umbra
// or penumbra. For a LEO orbit, span should cover at least one revolution.
func EclipseFraction(el Elements, start time.Time, span, step time.Duration) float64 {
	if step <= 0 || span <= 0 {
		return 0
	}
	total, dark := 0, 0
	for dt := time.Duration(0); dt < span; dt += step {
		t := start.Add(dt)
		s := el.StateAtJ2(t)
		if Shadow(s.Position, t) != Sunlit {
			dark++
		}
		total++
	}
	if total == 0 {
		return 0
	}
	return float64(dark) / float64(total)
}
