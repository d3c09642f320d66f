// Package radiation models the radiation environment that drives the
// paper's §9 hardening discussion: the South Atlantic Anomaly (SAA) region
// where LEO spacecraft take most of their dose, total-dose rates across
// orbit regimes (benign LEO, ferocious inner belt, outer-belt GEO), and
// the mitigation policies the paper weighs — COTS with SAA compute
// pauses, software hardening, redundancy, or rad-hard parts.
package radiation

import (
	"fmt"
	"math"
	"time"

	"spacedc/internal/orbit"
)

// SAA approximates the South Atlantic Anomaly's footprint at LEO as an
// ellipse in geodetic latitude/longitude. The anomaly grows with altitude
// as the inner belt dips lower; GrowthPerKm widens the semi-axes.
type SAA struct {
	CenterLatDeg float64
	CenterLonDeg float64
	SemiLatDeg   float64 // semi-axis in latitude at the reference altitude
	SemiLonDeg   float64 // semi-axis in longitude
	RefAltKm     float64
	GrowthPerKm  float64 // fractional semi-axis growth per km above reference
}

// DefaultSAA matches the anomaly's published LEO footprint: centered near
// (26°S, 45°W), roughly 50° × 90° across at 500 km.
func DefaultSAA() SAA {
	return SAA{
		CenterLatDeg: -26,
		CenterLonDeg: -45,
		SemiLatDeg:   24,
		SemiLonDeg:   45,
		RefAltKm:     500,
		GrowthPerKm:  0.0004,
	}
}

// Contains reports whether a geodetic position is inside the anomaly.
func (s SAA) Contains(g orbit.Geodetic) bool {
	scale := 1 + s.GrowthPerKm*(g.AltKm-s.RefAltKm)
	if scale < 0.5 {
		scale = 0.5
	}
	dLat := (g.LatDeg() - s.CenterLatDeg) / (s.SemiLatDeg * scale)
	dLon := lonDiffDeg(g.LonDeg(), s.CenterLonDeg) / (s.SemiLonDeg * scale)
	return dLat*dLat+dLon*dLon <= 1
}

// lonDiffDeg returns the signed longitude difference wrapped to ±180°.
func lonDiffDeg(a, b float64) float64 {
	d := math.Mod(a-b, 360)
	if d > 180 {
		d -= 360
	}
	if d < -180 {
		d += 360
	}
	return d
}

// TimeFraction propagates the orbit over span and returns the fraction of
// samples spent inside the anomaly.
func (s SAA) TimeFraction(el orbit.Elements, start time.Time, span, step time.Duration) (float64, error) {
	if step <= 0 || span <= 0 {
		return 0, fmt.Errorf("radiation: non-positive span or step")
	}
	prop := orbit.J2Propagator{Elements: el}
	inside, total := 0, 0
	for dt := time.Duration(0); dt < span; dt += step {
		t := start.Add(dt)
		st, err := prop.State(t)
		if err != nil {
			return 0, err
		}
		if s.Contains(orbit.SubPoint(st.Position, t)) {
			inside++
		}
		total++
	}
	return float64(inside) / float64(total), nil
}

// dosePoint anchors the total-ionizing-dose model at one altitude.
type dosePoint struct {
	altKm  float64
	kradYr float64
}

// doseProfile anchors a behind-3mm-aluminum annual dose profile across the
// belts: benign below ~1000 km (the paper's "1 krad/year" LEO number),
// the inner proton belt peaking in the low thousands of km, a saddle, the
// outer electron belt, and GEO at the outer belt's flank.
var doseProfile = []dosePoint{
	{300, 0.3},
	{550, 1},
	{1000, 6},
	{2000, 80},
	{3500, 900},
	{6000, 1500},
	{10000, 400},
	{16000, 800},
	{22000, 1100},
	{30000, 300},
	{35786, 60},
	{60000, 5},
}

// DoseRateKradPerYear returns the modeled annual total ionizing dose for a
// circular orbit at altKm, log-interpolated between the profile anchors.
func DoseRateKradPerYear(altKm float64) float64 {
	if altKm <= doseProfile[0].altKm {
		return doseProfile[0].kradYr
	}
	last := doseProfile[len(doseProfile)-1]
	if altKm >= last.altKm {
		return last.kradYr
	}
	for i := 1; i < len(doseProfile); i++ {
		lo, hi := doseProfile[i-1], doseProfile[i]
		if altKm > hi.altKm {
			continue
		}
		frac := (altKm - lo.altKm) / (hi.altKm - lo.altKm)
		return math.Exp(math.Log(lo.kradYr) + frac*(math.Log(hi.kradYr)-math.Log(lo.kradYr)))
	}
	return last.kradYr
}

// Part describes a component's total-dose tolerance.
type Part struct {
	Name          string
	ToleranceKrad float64
	RadHard       bool
}

// Reference parts from §9.
var (
	// RAD750 is BAE's rad-hard single-board computer.
	RAD750 = Part{Name: "RAD750", ToleranceKrad: 100, RadHard: true}
	// HardenedSRAM is the ITAR-regulated 300 krad part §9 calls
	// "significant overdesign for LEO".
	HardenedSRAM = Part{Name: "rad-hard SRAM", ToleranceKrad: 300, RadHard: true}
	// COTSGPU is a commercial GPU/accelerator with typical unhardened
	// silicon tolerance.
	COTSGPU = Part{Name: "COTS GPU", ToleranceKrad: 20, RadHard: false}
)

// Mitigation is an operational radiation strategy for SµDC compute.
type Mitigation int

// Mitigations, in increasing cost order.
const (
	// COTSWithSAAPause flies unhardened parts and pauses computation
	// inside the SAA (the ISS SpaceBorne approach).
	COTSWithSAAPause Mitigation = iota
	// COTSWithSoftwareHardening adds ~20% software mitigation overhead.
	COTSWithSoftwareHardening
	// Redundancy votes across replicated computations.
	Redundancy
	// RadHardParts uses qualified components throughout.
	RadHardParts
)

// String names the mitigation.
func (m Mitigation) String() string {
	switch m {
	case COTSWithSAAPause:
		return "COTS + SAA pause"
	case COTSWithSoftwareHardening:
		return "COTS + software hardening"
	case Redundancy:
		return "redundancy"
	case RadHardParts:
		return "rad-hard parts"
	default:
		return "unknown"
	}
}

// CapacityFactor returns the fraction of nominal compute capacity the
// mitigation leaves available. saaFraction is the orbit's time share in
// the anomaly (only relevant for the pause strategy).
func (m Mitigation) CapacityFactor(saaFraction float64) float64 {
	switch m {
	case COTSWithSAAPause:
		return 1 - saaFraction
	case COTSWithSoftwareHardening:
		return 1 / 1.2
	case Redundancy:
		return 0.5
	case RadHardParts:
		// Rad-hard processes lag commercial silicon by generations; the
		// paper's comparison point (RAD750 vs COTS GPU) is orders of
		// magnitude, folded here into a steep capacity penalty.
		return 0.02
	default:
		return 1
	}
}

// Recommend picks the cheapest §9-consistent mitigation for an orbit:
// benign LEO flies COTS with SAA pauses (or software hardening for
// latency-critical loads that cannot pause); belt and GEO orbits need
// software hardening at least, and multi-year GEO missions redundancy.
func Recommend(altKm float64, missionYears float64) Mitigation {
	dose := missionYears * DoseRateKradPerYear(altKm)
	switch {
	case dose <= COTSGPU.ToleranceKrad*0.5:
		return COTSWithSAAPause
	case dose <= COTSGPU.ToleranceKrad:
		return COTSWithSoftwareHardening
	case dose <= 2*COTSGPU.ToleranceKrad:
		return Redundancy
	default:
		return RadHardParts
	}
}
