package orbit

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spacedc/internal/vecmath"
)

// Elements is a classical Keplerian element set at a reference epoch.
type Elements struct {
	Epoch          time.Time
	SemiMajorKm    float64 // semi-major axis a, km
	Eccentricity   float64 // e, dimensionless, [0, 1) for closed orbits
	InclinationRad float64 // i, radians, [0, π]
	RAANRad        float64 // Ω, right ascension of ascending node, radians
	ArgPerigeeRad  float64 // ω, argument of perigee, radians
	MeanAnomalyRad float64 // M at epoch, radians
}

// State is an ECI position/velocity pair in km and km/s.
type State struct {
	Position vecmath.Vec3 // km
	Velocity vecmath.Vec3 // km/s
}

// ErrNotElliptical is returned when an operation requires a closed orbit.
var ErrNotElliptical = errors.New("orbit: eccentricity must be in [0, 1)")

// CircularLEO returns elements for a circular orbit at the given altitude
// and inclination, with the ascending node at raan and the satellite at
// argLat radians past the ascending node at epoch.
func CircularLEO(altKm, incRad, raan, argLat float64, epoch time.Time) Elements {
	return Elements{
		Epoch:          epoch,
		SemiMajorKm:    EarthRadiusKm + altKm,
		Eccentricity:   0,
		InclinationRad: incRad,
		RAANRad:        vecmath.WrapTwoPi(raan),
		ArgPerigeeRad:  0,
		MeanAnomalyRad: vecmath.WrapTwoPi(argLat),
	}
}

// Geostationary returns elements for a geostationary slot at the given
// east longitude (radians) at epoch. The returned orbit is equatorial and
// circular with the orbital rate equal to Earth's rotation rate, so the
// sub-satellite longitude is fixed.
func Geostationary(lonRad float64, epoch time.Time) Elements {
	// a from n = ωE: a = (µ/ωE²)^(1/3).
	a := math.Cbrt(EarthMuKm3S2 / (EarthRotationRateRadS * EarthRotationRateRadS))
	// At epoch, the satellite sits above lonRad, i.e. its right ascension
	// equals GMST + lon. With i = 0 the in-plane angle Ω+ω+M plays that role.
	ra := vecmath.WrapTwoPi(GMST(epoch) + lonRad)
	return Elements{
		Epoch:          epoch,
		SemiMajorKm:    a,
		Eccentricity:   0,
		InclinationRad: 0,
		RAANRad:        0,
		ArgPerigeeRad:  0,
		MeanAnomalyRad: ra,
	}
}

// MeanMotionRadS returns the two-body mean motion n = sqrt(µ/a³) in rad/s.
func (el Elements) MeanMotionRadS() float64 {
	a := el.SemiMajorKm
	return math.Sqrt(EarthMuKm3S2 / (a * a * a))
}

// Period returns the orbital period.
func (el Elements) Period() time.Duration {
	n := el.MeanMotionRadS()
	return time.Duration(2 * math.Pi / n * float64(time.Second))
}

// PerigeeAltKm returns the perigee altitude above the spherical Earth.
func (el Elements) PerigeeAltKm() float64 {
	return el.SemiMajorKm*(1-el.Eccentricity) - EarthRadiusKm
}

// Validate checks the element set for physical plausibility.
func (el Elements) Validate() error {
	if el.Eccentricity < 0 || el.Eccentricity >= 1 {
		return ErrNotElliptical
	}
	if el.SemiMajorKm <= EarthRadiusKm*(1-el.Eccentricity) {
		return fmt.Errorf("orbit: perigee %.1f km is inside Earth", el.PerigeeAltKm())
	}
	if el.InclinationRad < 0 || el.InclinationRad > math.Pi {
		return fmt.Errorf("orbit: inclination %.3f rad outside [0, π]", el.InclinationRad)
	}
	return nil
}

// SolveKepler solves Kepler's equation M = E - e·sin(E) for the eccentric
// anomaly E using Newton iteration with a bisection-safe fallback. M may be
// any angle; the result is wrapped to match M's revolution.
func SolveKepler(meanAnomaly, ecc float64) float64 {
	if ecc == 0 {
		return meanAnomaly
	}
	m := vecmath.WrapPi(meanAnomaly)
	// Starting guess per Danby: works for all e in [0, 1).
	e := m + math.Copysign(0.85*ecc, m)
	for i := 0; i < 50; i++ {
		f := e - ecc*math.Sin(e) - m
		fp := 1 - ecc*math.Cos(e)
		de := f / fp
		e -= de
		if math.Abs(de) < 1e-13 {
			break
		}
	}
	return e + (meanAnomaly - m)
}

// EccentricToTrue converts eccentric anomaly to true anomaly.
func EccentricToTrue(eccAnomaly, ecc float64) float64 {
	halfE := eccAnomaly / 2
	return 2 * math.Atan2(
		math.Sqrt(1+ecc)*math.Sin(halfE),
		math.Sqrt(1-ecc)*math.Cos(halfE),
	)
}

// TrueToEccentric converts true anomaly to eccentric anomaly.
func TrueToEccentric(trueAnomaly, ecc float64) float64 {
	halfNu := trueAnomaly / 2
	return 2 * math.Atan2(
		math.Sqrt(1-ecc)*math.Sin(halfNu),
		math.Sqrt(1+ecc)*math.Cos(halfNu),
	)
}

// EccentricToMean converts eccentric anomaly to mean anomaly.
func EccentricToMean(eccAnomaly, ecc float64) float64 {
	return eccAnomaly - ecc*math.Sin(eccAnomaly)
}

// perifocalToECI builds the rotation from the perifocal (PQW) frame to ECI
// for the element set.
func (el Elements) perifocalToECI() vecmath.Mat3 {
	return vecmath.RotZ(el.RAANRad).
		Mul(vecmath.RotX(el.InclinationRad)).
		Mul(vecmath.RotZ(el.ArgPerigeeRad))
}

// StateAtAnomaly returns the ECI state for the element set at the given
// true anomaly (radians).
func (el Elements) StateAtAnomaly(trueAnomaly float64) State {
	a, e := el.SemiMajorKm, el.Eccentricity
	p := a * (1 - e*e) // semi-latus rectum
	r := p / (1 + e*math.Cos(trueAnomaly))
	cosNu, sinNu := math.Cos(trueAnomaly), math.Sin(trueAnomaly)

	// Perifocal position and velocity.
	posPQW := vecmath.Vec3{X: r * cosNu, Y: r * sinNu}
	vScale := math.Sqrt(EarthMuKm3S2 / p)
	velPQW := vecmath.Vec3{X: -vScale * sinNu, Y: vScale * (e + cosNu)}

	rot := el.perifocalToECI()
	return State{
		Position: rot.MulVec(posPQW),
		Velocity: rot.MulVec(velPQW),
	}
}

// StateAt propagates the element set to time t using two-body dynamics
// (no perturbations) and returns the ECI state.
func (el Elements) StateAt(t time.Time) State {
	dt := t.Sub(el.Epoch).Seconds()
	m := el.MeanAnomalyRad + el.MeanMotionRadS()*dt
	ea := SolveKepler(m, el.Eccentricity)
	nu := EccentricToTrue(ea, el.Eccentricity)
	return el.StateAtAnomaly(nu)
}

// ElementsFromState recovers a classical element set from an ECI state.
// It fails for parabolic/hyperbolic states and for states with undefined
// elements it falls back to zero RAAN / argument of perigee (equatorial or
// circular orbits), matching the conventions used by CircularLEO.
func ElementsFromState(s State, epoch time.Time) (Elements, error) {
	r := s.Position
	v := s.Velocity
	rn := r.Norm()
	vn := v.Norm()
	if rn == 0 {
		return Elements{}, errors.New("orbit: zero position vector")
	}

	h := r.Cross(v)                    // specific angular momentum
	n := vecmath.Vec3{X: -h.Y, Y: h.X} // node vector = ẑ × h

	// Eccentricity vector.
	eVec := r.Scale(vn*vn/EarthMuKm3S2 - 1/rn).
		Sub(v.Scale(r.Dot(v) / EarthMuKm3S2))
	ecc := eVec.Norm()

	energy := vn*vn/2 - EarthMuKm3S2/rn
	if energy >= 0 {
		return Elements{}, ErrNotElliptical
	}
	a := -EarthMuKm3S2 / (2 * energy)

	inc := math.Acos(vecmath.Clamp(h.Z/h.Norm(), -1, 1))

	const tiny = 1e-11
	var raan, argp, nu float64
	equatorial := n.Norm() < tiny
	circular := ecc < tiny

	switch {
	case !equatorial && !circular:
		raan = math.Atan2(n.Y, n.X)
		argp = n.AngleTo(eVec)
		if eVec.Z < 0 {
			argp = 2*math.Pi - argp
		}
		nu = eVec.AngleTo(r)
		if r.Dot(v) < 0 {
			nu = 2*math.Pi - nu
		}
	case equatorial && !circular:
		// Use longitude of perigee measured from X axis.
		raan = 0
		argp = math.Atan2(eVec.Y, eVec.X)
		if h.Z < 0 {
			argp = 2*math.Pi - argp
		}
		nu = eVec.AngleTo(r)
		if r.Dot(v) < 0 {
			nu = 2*math.Pi - nu
		}
	case !equatorial && circular:
		raan = math.Atan2(n.Y, n.X)
		argp = 0
		// Argument of latitude stands in for the anomaly.
		nu = n.AngleTo(r)
		if r.Z < 0 {
			nu = 2*math.Pi - nu
		}
	default: // equatorial and circular
		raan, argp = 0, 0
		nu = math.Atan2(r.Y, r.X)
		if h.Z < 0 {
			nu = 2*math.Pi - nu
		}
	}

	ea := TrueToEccentric(nu, ecc)
	m := EccentricToMean(ea, ecc)

	return Elements{
		Epoch:          epoch,
		SemiMajorKm:    a,
		Eccentricity:   ecc,
		InclinationRad: inc,
		RAANRad:        vecmath.WrapTwoPi(raan),
		ArgPerigeeRad:  vecmath.WrapTwoPi(argp),
		MeanAnomalyRad: vecmath.WrapTwoPi(m),
	}, nil
}
