package orbit

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spacedc/internal/vecmath"
)

// SGP4 is a hand-rolled implementation of the near-Earth SGP4 analytic
// propagator (Spacetrack Report #3, Hoots & Roehrich 1980). It models
// secular and periodic effects of J2/J3/J4 and atmospheric drag via the
// BSTAR term, which is what LEO constellation analysis needs. The deep-space
// extensions (SDP4) for periods over 225 minutes are out of scope — GEO
// satellites in this study are modeled with the two-body/J2 propagator,
// which is exact enough for geometry over days.
type SGP4 struct {
	tle TLE

	// Initialization constants, following the report's notation.
	cosio, sinio           float64 // cos/sin of inclination
	eta                    float64
	c1, c4, c5             float64
	d2, d3, d4             float64
	aodp, xnodp            float64 // recovered semi-major axis (er) and mean motion (rad/min)
	omgcof, xmcof          float64
	xnodcf, t2cof          float64
	t3cof, t4cof, t5cof    float64
	xlcof, aycof           float64
	delmo, sinmo           float64
	x3thm1, x1mth2, x7thm1 float64
	xmdot, omgdot, xnodot  float64 // secular rates, rad/min
	isimp                  bool    // simplified drag for perigee < 220 km
}

// SGP4 gravitational constants (WGS-72).
const (
	sgp4XKE    = 0.0743669161331734132 // sqrt(µ) in (earth radii)^1.5 / min
	sgp4CK2    = 5.413080e-4           // 0.5 * J2 * aE²
	sgp4CK4    = 0.62098875e-6         // -0.375 * J4 * aE⁴
	sgp4XJ3    = -0.253881e-5          // J3
	sgp4QOMS2T = 1.88027916e-9         // (q0 - s)⁴ in er⁴
	sgp4S      = 1.01222928            // s, er
	sgp4AE     = 1.0                   // distance units per earth radius
)

// ErrSatelliteDecayed is returned when drag has shrunk the orbit below the
// surface at the requested time.
var ErrSatelliteDecayed = errors.New("sgp4: satellite has decayed")

// NewSGP4 initializes the propagator from a parsed TLE.
func NewSGP4(tle TLE) (*SGP4, error) {
	if tle.Eccentricity < 0 || tle.Eccentricity >= 1 {
		return nil, fmt.Errorf("sgp4: eccentricity %v out of range", tle.Eccentricity)
	}
	if tle.MeanMotion <= 0 {
		return nil, fmt.Errorf("sgp4: non-positive mean motion %v", tle.MeanMotion)
	}

	p := &SGP4{tle: tle}

	xno := tle.MeanMotion // rad/min
	eo := tle.Eccentricity
	xincl := tle.Inclination

	p.cosio = math.Cos(xincl)
	p.sinio = math.Sin(xincl)
	theta2 := p.cosio * p.cosio
	p.x3thm1 = 3*theta2 - 1
	p.x1mth2 = 1 - theta2
	p.x7thm1 = 7*theta2 - 1
	eosq := eo * eo
	betao2 := 1 - eosq
	betao := math.Sqrt(betao2)

	// Recover original mean motion and semi-major axis.
	a1 := math.Pow(sgp4XKE/xno, 2.0/3.0)
	del1 := 1.5 * sgp4CK2 * p.x3thm1 / (a1 * a1 * betao * betao2)
	ao := a1 * (1 - del1*(1.0/3.0+del1*(1+134.0/81.0*del1)))
	delo := 1.5 * sgp4CK2 * p.x3thm1 / (ao * ao * betao * betao2)
	p.xnodp = xno / (1 + delo)
	p.aodp = ao / (1 - delo)

	// Drag-term setup: adjust s for low perigees.
	s4 := sgp4S
	qoms24 := sgp4QOMS2T
	perige := (p.aodp*(1-eo) - sgp4AE) * EarthRadiusKm
	if perige < 156 {
		s4 = perige - 78
		if perige <= 98 {
			s4 = 20
		}
		qoms24 = math.Pow((120-s4)*sgp4AE/EarthRadiusKm, 4)
		s4 = s4/EarthRadiusKm + sgp4AE
	}
	p.isimp = p.aodp*(1-eo)/sgp4AE < 220/EarthRadiusKm+sgp4AE

	pinvsq := 1 / (p.aodp * p.aodp * betao2 * betao2)
	tsi := 1 / (p.aodp - s4)
	p.eta = p.aodp * eo * tsi
	etasq := p.eta * p.eta
	eeta := eo * p.eta
	psisq := math.Abs(1 - etasq)
	coef := qoms24 * math.Pow(tsi, 4)
	coef1 := coef / math.Pow(psisq, 3.5)
	c2 := coef1 * p.xnodp * (p.aodp*(1+1.5*etasq+eeta*(4+etasq)) +
		0.75*sgp4CK2*tsi/psisq*p.x3thm1*(8+3*etasq*(8+etasq)))
	p.c1 = tle.BStar * c2

	var c3 float64
	if eo > 1e-4 {
		c3 = coef * tsi * a3ovk2() * p.xnodp * sgp4AE * p.sinio / eo
	}
	p.c4 = 2 * p.xnodp * coef1 * p.aodp * betao2 *
		(p.eta*(2+0.5*etasq) + eo*(0.5+2*etasq) -
			2*sgp4CK2*tsi/(p.aodp*psisq)*
				(-3*p.x3thm1*(1-2*eeta+etasq*(1.5-0.5*eeta))+
					0.75*p.x1mth2*(2*etasq-eeta*(1+etasq))*math.Cos(2*tle.ArgPerigee)))
	p.c5 = 2 * coef1 * p.aodp * betao2 * (1 + 2.75*(etasq+eeta) + eeta*etasq)

	theta4 := theta2 * theta2
	temp1 := 3 * sgp4CK2 * pinvsq * p.xnodp
	temp2 := temp1 * sgp4CK2 * pinvsq
	temp3 := 1.25 * sgp4CK4 * pinvsq * pinvsq * p.xnodp
	p.xmdot = p.xnodp + 0.5*temp1*betao*p.x3thm1 +
		0.0625*temp2*betao*(13-78*theta2+137*theta4)
	x1m5th := 1 - 5*theta2
	p.omgdot = -0.5*temp1*x1m5th +
		0.0625*temp2*(7-114*theta2+395*theta4) +
		temp3*(3-36*theta2+49*theta4)
	xhdot1 := -temp1 * p.cosio
	p.xnodot = xhdot1 + (0.5*temp2*(4-19*theta2)+2*temp3*(3-7*theta2))*p.cosio
	p.omgcof = tle.BStar * c3 * math.Cos(tle.ArgPerigee)
	p.xmcof = 0
	if eo > 1e-4 {
		p.xmcof = -(2.0 / 3.0) * coef * tle.BStar * sgp4AE / eeta
	}
	p.xnodcf = 3.5 * betao2 * xhdot1 * p.c1
	p.t2cof = 1.5 * p.c1
	p.xlcof = 0.125 * a3ovk2() * p.sinio * (3 + 5*p.cosio) / (1 + p.cosio)
	p.aycof = 0.25 * a3ovk2() * p.sinio
	p.delmo = math.Pow(1+p.eta*math.Cos(tle.MeanAnomaly), 3)
	p.sinmo = math.Sin(tle.MeanAnomaly)

	if !p.isimp {
		c1sq := p.c1 * p.c1
		p.d2 = 4 * p.aodp * tsi * c1sq
		temp := p.d2 * tsi * p.c1 / 3
		p.d3 = (17*p.aodp + s4) * temp
		p.d4 = 0.5 * temp * p.aodp * tsi * (221*p.aodp + 31*s4) * p.c1
		p.t3cof = p.d2 + 2*c1sq
		p.t4cof = 0.25 * (3*p.d3 + p.c1*(12*p.d2+10*c1sq))
		p.t5cof = 0.2 * (3*p.d4 + 12*p.c1*p.d3 + 6*p.d2*p.d2 + 15*c1sq*(2*p.d2+c1sq))
	}

	return p, nil
}

// a3ovk2 returns -J3/CK2 · aE, a constant in the long-period terms.
func a3ovk2() float64 { return -sgp4XJ3 / sgp4CK2 * sgp4AE * sgp4AE * sgp4AE }

// PropagateMinutes returns the ECI state tsince minutes after the TLE epoch.
func (p *SGP4) PropagateMinutes(tsince float64) (State, error) {
	tle := p.tle
	eo := tle.Eccentricity

	// Secular gravity and drag.
	xmdf := tle.MeanAnomaly + p.xmdot*tsince
	omgadf := tle.ArgPerigee + p.omgdot*tsince
	xnoddf := tle.RAAN + p.xnodot*tsince
	omega := omgadf
	xmp := xmdf
	tsq := tsince * tsince
	xnode := xnoddf + p.xnodcf*tsq
	tempa := 1 - p.c1*tsince
	tempe := tle.BStar * p.c4 * tsince
	templ := p.t2cof * tsq
	if !p.isimp {
		delomg := p.omgcof * tsince
		delm := p.xmcof * (math.Pow(1+p.eta*math.Cos(xmdf), 3) - p.delmo)
		temp := delomg + delm
		xmp = xmdf + temp
		omega = omgadf - temp
		tcube := tsq * tsince
		tfour := tsince * tcube
		tempa += -p.d2*tsq - p.d3*tcube - p.d4*tfour
		tempe += tle.BStar * p.c5 * (math.Sin(xmp) - p.sinmo)
		templ += p.t3cof*tcube + tfour*(p.t4cof+tsince*p.t5cof)
	}
	a := p.aodp * tempa * tempa
	e := eo - tempe
	if e < 1e-6 {
		e = 1e-6
	}
	if e >= 1 {
		return State{}, ErrSatelliteDecayed
	}
	xl := xmp + omega + xnode + p.xnodp*templ
	beta := math.Sqrt(1 - e*e)
	xn := sgp4XKE / math.Pow(a, 1.5)

	// Long-period periodics.
	axn := e * math.Cos(omega)
	temp := 1 / (a * beta * beta)
	xll := temp * p.xlcof * axn
	aynl := temp * p.aycof
	xlt := xl + xll
	ayn := e*math.Sin(omega) + aynl

	// Solve Kepler's equation for E + ω.
	capu := vecmath.WrapTwoPi(xlt - xnode)
	epw := capu
	var sinepw, cosepw, ecose, esine float64
	for i := 0; i < 10; i++ {
		sinepw = math.Sin(epw)
		cosepw = math.Cos(epw)
		ecose = axn*cosepw + ayn*sinepw
		esine = axn*sinepw - ayn*cosepw
		f := capu - epw + esine
		if math.Abs(f) < 1e-12 {
			break
		}
		df := 1 - ecose
		delep := f / df
		if math.Abs(delep) > 0.95 {
			delep = math.Copysign(0.95, delep)
		}
		epw += delep
	}

	// Short-period preliminary quantities.
	elsq := axn*axn + ayn*ayn
	templ1 := 1 - elsq
	pl := a * templ1
	if pl < 0 {
		return State{}, ErrSatelliteDecayed
	}
	r := a * (1 - ecose)
	invR := 1 / r
	rdot := sgp4XKE * math.Sqrt(a) * esine * invR
	rfdot := sgp4XKE * math.Sqrt(pl) * invR
	betal := math.Sqrt(templ1)
	temp3 := esine / (1 + betal)
	cosu := a * invR * (cosepw - axn + ayn*temp3)
	sinu := a * invR * (sinepw - ayn - axn*temp3)
	u := math.Atan2(sinu, cosu)
	sin2u := 2 * sinu * cosu
	cos2u := 2*cosu*cosu - 1

	invPl := 1 / pl
	temp1 := sgp4CK2 * invPl
	temp2 := temp1 * invPl

	// Short-period periodics.
	rk := r*(1-1.5*temp2*betal*p.x3thm1) + 0.5*temp1*p.x1mth2*cos2u
	uk := u - 0.25*temp2*p.x7thm1*sin2u
	xnodek := xnode + 1.5*temp2*p.cosio*sin2u
	xinck := tle.Inclination + 1.5*temp2*p.cosio*p.sinio*cos2u
	rdotk := rdot - xn*temp1*p.x1mth2*sin2u
	rfdotk := rfdot + xn*temp1*(p.x1mth2*cos2u+1.5*p.x3thm1)

	if rk < sgp4AE {
		return State{}, ErrSatelliteDecayed
	}

	// Orientation vectors.
	sinuk := math.Sin(uk)
	cosuk := math.Cos(uk)
	sinik := math.Sin(xinck)
	cosik := math.Cos(xinck)
	sinnok := math.Sin(xnodek)
	cosnok := math.Cos(xnodek)
	xmx := -sinnok * cosik
	xmy := cosnok * cosik
	ux := xmx*sinuk + cosnok*cosuk
	uy := xmy*sinuk + sinnok*cosuk
	uz := sinik * sinuk
	vx := xmx*cosuk - cosnok*sinuk
	vy := xmy*cosuk - sinnok*sinuk
	vz := sinik * cosuk

	// Position in km, velocity in km/s.
	posScale := EarthRadiusKm
	velScale := EarthRadiusKm / 60
	return State{
		Position: vecmath.Vec3{X: rk * ux * posScale, Y: rk * uy * posScale, Z: rk * uz * posScale},
		Velocity: vecmath.Vec3{
			X: (rdotk*ux + rfdotk*vx) * velScale,
			Y: (rdotk*uy + rfdotk*vy) * velScale,
			Z: (rdotk*uz + rfdotk*vz) * velScale,
		},
	}, nil
}

// StateAt returns the ECI state at the given wall-clock time.
func (p *SGP4) StateAt(t time.Time) (State, error) {
	tsince := t.Sub(p.tle.Epoch).Minutes()
	return p.PropagateMinutes(tsince)
}
