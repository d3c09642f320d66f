package orbit

import (
	"math"
	"time"

	"spacedc/internal/vecmath"
)

// SubPoint returns the geodetic point directly beneath an ECI position at
// time t (the "sub-satellite point"), including the satellite's altitude.
func SubPoint(posECI vecmath.Vec3, t time.Time) Geodetic {
	return ECEFToGeodetic(ECIToECEF(posECI, t))
}

// GroundTrackPoint is one sample of a ground track.
type GroundTrackPoint struct {
	Time time.Time
	Geodetic
}

// Propagator produces ECI states as a function of time. Elements (via
// J2Propagator), SGP4, and test doubles all satisfy it.
type Propagator interface {
	// State returns the ECI state at t. Implementations return an error
	// when the orbit cannot be evaluated (e.g. decay).
	State(t time.Time) (State, error)
}

// J2Propagator adapts Elements to the Propagator interface using secular-J2
// propagation.
type J2Propagator struct {
	Elements Elements
}

// State implements Propagator.
func (p J2Propagator) State(t time.Time) (State, error) {
	if err := p.Elements.Validate(); err != nil {
		return State{}, err
	}
	return p.Elements.StateAtJ2(t), nil
}

// State implements Propagator for SGP4.
func (p *SGP4) State(t time.Time) (State, error) { return p.StateAt(t) }

// GroundTrack samples the sub-satellite point of prop from start for span at
// the given step.
func GroundTrack(prop Propagator, start time.Time, span, step time.Duration) ([]GroundTrackPoint, error) {
	if step <= 0 {
		step = time.Minute
	}
	var points []GroundTrackPoint
	for dt := time.Duration(0); dt <= span; dt += step {
		t := start.Add(dt)
		s, err := prop.State(t)
		if err != nil {
			return points, err
		}
		points = append(points, GroundTrackPoint{Time: t, Geodetic: SubPoint(s.Position, t)})
	}
	return points, nil
}

// SwathWidthKm returns the cross-track ground swath width (km) visible from
// altitude altKm with a sensor half-angle of halfAngleRad, clamped to the
// horizon. This feeds the imaging coverage model.
func SwathWidthKm(altKm, halfAngleRad float64) float64 {
	if halfAngleRad <= 0 || altKm <= 0 {
		return 0
	}
	// Earth-central angle of the swath edge, via the law of sines in the
	// Earth-center / satellite / target triangle: the off-nadir angle η
	// maps to central angle λ = asin(r·sin(η)/re) − η at the near
	// intersection. Beyond the horizon the asin saturates.
	re := EarthRadiusKm
	r := re + altKm
	sinEta := vecmath.Clamp((r/re)*math.Sin(halfAngleRad), -1, 1)
	lam := math.Asin(sinEta) - halfAngleRad
	if lam < 0 {
		lam = 0
	}
	return 2 * lam * re
}
