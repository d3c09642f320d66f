// Package coverage connects constellation design to the temporal
// resolutions the paper's Table 1 missions advertise: how often a
// constellation of imaging satellites revisits a point on Earth, and how
// many satellites a target revisit interval implies. It closes the loop
// between the datagen package's (spatial, temporal) resolution grid and
// the constellation package's orbital geometry.
package coverage

import (
	"fmt"
	"math"
	"time"

	"spacedc/internal/orbit"
)

// Imager describes one satellite's imaging geometry.
type Imager struct {
	AltKm float64
	// HalfAngleRad is the sensor's cross-track half field of view.
	HalfAngleRad float64
}

// Validate checks the imager.
func (im Imager) Validate() error {
	if im.AltKm <= 0 {
		return fmt.Errorf("coverage: non-positive altitude %v", im.AltKm)
	}
	if im.HalfAngleRad <= 0 || im.HalfAngleRad >= math.Pi/2 {
		return fmt.Errorf("coverage: half angle %v outside (0, π/2)", im.HalfAngleRad)
	}
	return nil
}

// SwathKm returns the imaged cross-track swath width.
func (im Imager) SwathKm() float64 {
	return orbit.SwathWidthKm(im.AltKm, im.HalfAngleRad)
}

// period returns the circular-orbit period at the imager's altitude.
func (im Imager) period() time.Duration {
	a := orbit.EarthRadiusKm + im.AltKm
	n := math.Sqrt(orbit.EarthMuKm3S2 / (a * a * a))
	return time.Duration(2 * math.Pi / n * float64(time.Second))
}

// MeanRevisit estimates the average revisit interval for a point at the
// given latitude, observed by nSats satellites (spread over planes for
// even coverage) in near-polar orbits. The estimate is the classic
// area-coverage argument: each satellite sweeps swath × ground-speed of
// area per unit time; the band at the target latitude is revisited when
// the constellation has swept the band's circumference.
func MeanRevisit(im Imager, nSats int, latRad float64) (time.Duration, error) {
	if err := im.Validate(); err != nil {
		return 0, err
	}
	if nSats <= 0 {
		return 0, fmt.Errorf("coverage: non-positive satellite count %d", nSats)
	}
	if math.Abs(latRad) >= math.Pi/2 {
		return 0, fmt.Errorf("coverage: polar singularity at latitude %v", latRad)
	}
	// Circumference of the latitude band the point sits in.
	bandKm := 2 * math.Pi * orbit.EarthRadiusKm * math.Cos(latRad)
	swath := im.SwathKm()
	if swath <= 0 {
		return 0, fmt.Errorf("coverage: zero swath")
	}
	// Each revolution a polar orbiter crosses the band twice (ascending
	// and descending), covering one swath width each time. nSats
	// satellites cover 2·n·swath per period.
	coveredPerPeriod := 2 * float64(nSats) * swath
	revolutions := bandKm / coveredPerPeriod
	return time.Duration(revolutions * float64(im.period())), nil
}

// SatellitesForRevisit inverts MeanRevisit: the constellation size needed
// to revisit latitude latRad at least every target interval.
func SatellitesForRevisit(im Imager, target time.Duration, latRad float64) (int, error) {
	if target <= 0 {
		return 0, fmt.Errorf("coverage: non-positive target %v", target)
	}
	// Binary-search-free inversion: revisit ∝ 1/n.
	one, err := MeanRevisit(im, 1, latRad)
	if err != nil {
		return 0, err
	}
	n := int(math.Ceil(float64(one) / float64(target)))
	if n < 1 {
		n = 1
	}
	return n, nil
}
