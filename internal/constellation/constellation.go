// Package constellation models Earth-observation satellite constellations:
// single-plane rings, formation spacing styles, the satellite weight/power
// classes of the paper's Table 7, and the current and planned LEO EO
// constellation inventory of Table 1.
package constellation

import (
	"fmt"
	"math"
	"time"

	"spacedc/internal/orbit"
	"spacedc/internal/units"
)

// Satellite is one member of a constellation.
type Satellite struct {
	Name     string
	Elements orbit.Elements
}

// Constellation is a set of satellites sharing a design.
type Constellation struct {
	Name       string
	Satellites []Satellite
	Planes     int
	PerPlane   int
}

// Size returns the number of satellites.
func (c Constellation) Size() int { return len(c.Satellites) }

// Spacing describes how satellites are distributed within a plane.
type Spacing int

// Spacing styles from the paper's §8: "orbit spaced" formations distribute
// satellites evenly around the plane; "frame spaced" formations pack them so
// adjacent satellites image adjacent ground frames (much closer together).
const (
	OrbitSpaced Spacing = iota
	FrameSpaced
)

// String names the spacing style.
func (s Spacing) String() string {
	switch s {
	case OrbitSpaced:
		return "orbit-spaced"
	case FrameSpaced:
		return "frame-spaced"
	default:
		return "unknown"
	}
}

// RingConfig describes a single-plane constellation.
type RingConfig struct {
	Name    string
	Count   int     // number of satellites
	AltKm   float64 // circular orbit altitude
	IncRad  float64 // inclination
	RAANRad float64 // plane right ascension
	Spacing Spacing
	// FrameSpacingKm is the along-track separation used when Spacing is
	// FrameSpaced. Defaults to 12 km (≈ one 4K ground frame at 3 m GSD
	// plus margin) when zero.
	FrameSpacingKm float64
	Epoch          time.Time
}

// DefaultFrameSpacingKm is the along-track gap between frame-spaced
// satellites: one 11.5 km ground frame edge plus a small guard band.
const DefaultFrameSpacingKm = 12.0

// Ring builds a single-plane constellation. Orbit-spaced rings put the
// satellites at equal angular intervals; frame-spaced rings pack them with
// the configured along-track separation starting at argument of latitude 0.
func Ring(cfg RingConfig) (Constellation, error) {
	if cfg.Count <= 0 {
		return Constellation{}, fmt.Errorf("constellation: count %d must be positive", cfg.Count)
	}
	if cfg.AltKm <= 0 {
		return Constellation{}, fmt.Errorf("constellation: altitude %v must be positive", cfg.AltKm)
	}
	frameKm := cfg.FrameSpacingKm
	if frameKm == 0 {
		frameKm = DefaultFrameSpacingKm
	}
	r := orbit.EarthRadiusKm + cfg.AltKm
	var step float64
	switch cfg.Spacing {
	case OrbitSpaced:
		step = 2 * math.Pi / float64(cfg.Count)
	case FrameSpaced:
		step = frameKm / r
		if step*float64(cfg.Count) > 2*math.Pi {
			return Constellation{}, fmt.Errorf(
				"constellation: %d frame-spaced satellites at %v km spacing exceed the plane",
				cfg.Count, frameKm)
		}
	default:
		return Constellation{}, fmt.Errorf("constellation: unknown spacing %d", cfg.Spacing)
	}

	c := Constellation{Name: cfg.Name, Planes: 1, PerPlane: cfg.Count}
	for i := 0; i < cfg.Count; i++ {
		el := orbit.CircularLEO(cfg.AltKm, cfg.IncRad, cfg.RAANRad, float64(i)*step, cfg.Epoch)
		c.Satellites = append(c.Satellites, Satellite{
			Name:     fmt.Sprintf("%s-%02d", cfg.Name, i),
			Elements: el,
		})
	}
	return c, nil
}

// SatelliteClass is a weight/power class from the paper's Table 7.
type SatelliteClass struct {
	Name     string
	Examples string
	MinPower units.Power
	MaxPower units.Power
}

// Satellite classes, Table 7 of the paper.
var (
	ClassPicosat = SatelliteClass{
		Name: "picosat (<1 kg)", Examples: "Swarm Technologies",
		MinPower: 1 * units.Watt, MaxPower: 10 * units.Watt,
	}
	ClassCubesat = SatelliteClass{
		Name: "cubesat (1-10 kg)", Examples: "Dove, REC, Stork, Gemini",
		MinPower: 10 * units.Watt, MaxPower: 30 * units.Watt,
	}
	ClassMicrosat = SatelliteClass{
		Name: "microsat (10-100 kg)", Examples: "SkySat, BlackSky",
		MinPower: 55 * units.Watt, MaxPower: 210 * units.Watt,
	}
	ClassSmallsat = SatelliteClass{
		Name: "smallsat (100-500 kg)", Examples: "Vivid-i, EarthNow, ADASPACE, Jilin-1, Spacety",
		MinPower: 200 * units.Watt, MaxPower: 6600 * units.Watt,
	}
	ClassStation = SatelliteClass{
		Name: "station class", Examples: "ISS",
		MinPower: 240 * units.Kilowatt, MaxPower: 240 * units.Kilowatt,
	}
)

// Classes lists the Table 7 satellite classes from smallest to largest.
func Classes() []SatelliteClass {
	return []SatelliteClass{ClassPicosat, ClassCubesat, ClassMicrosat, ClassSmallsat, ClassStation}
}
