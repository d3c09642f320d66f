// Package core implements the paper's primary contribution: the space
// microdatacenter (SµDC) — a large computational satellite that ingests
// Earth-observation data over inter-satellite links and runs, in orbit, the
// applications that would otherwise run on the ground.
//
// It provides SµDC sizing against application workloads (Fig 8, 9, 14),
// radiation-hardening overheads (Fig 16), placement analysis including
// eclipse-aware power generation (§9), ISL-bottleneck co-design (Fig 11),
// the GEO star topology (Fig 15), and the strategy comparison of Table 9.
package core

import (
	"fmt"
	"math"
	"time"

	"spacedc/internal/gpusim"
	"spacedc/internal/orbit"
	"spacedc/internal/units"
)

// Hardening is a radiation-tolerance strategy for SµDC compute (§9,
// Fig 16).
type Hardening int

// Hardening strategies.
const (
	// NoHardening relies on LEO's benign environment and SAA pauses.
	NoHardening Hardening = iota
	// SoftwareHardening applies software-based soft-error mitigation at
	// ~20% compute overhead (Abich et al.).
	SoftwareHardening
	// DualRedundant runs every computation twice.
	DualRedundant
	// TripleRedundant runs every computation three times (TMR voting).
	TripleRedundant
)

// String names the strategy.
func (h Hardening) String() string {
	switch h {
	case NoHardening:
		return "none"
	case SoftwareHardening:
		return "software (20%)"
	case DualRedundant:
		return "2x redundancy"
	case TripleRedundant:
		return "3x redundancy"
	default:
		return "unknown"
	}
}

// ComputeOverhead returns the multiplier on compute work (≥ 1).
func (h Hardening) ComputeOverhead() float64 {
	switch h {
	case SoftwareHardening:
		return 1.2
	case DualRedundant:
		return 2
	case TripleRedundant:
		return 3
	default:
		return 1
	}
}

// Hardenings lists the Fig 16 sweep.
func Hardenings() []Hardening {
	return []Hardening{NoHardening, SoftwareHardening, DualRedundant, TripleRedundant}
}

// Placement is where the SµDC flies (§9).
type Placement int

// Placements.
const (
	// LEOInPlane flies in formation with the EO constellation, enabling
	// fixed ring/k-list topologies.
	LEOInPlane Placement = iota
	// LEOHigher sits in the same plane at higher altitude: less drag and
	// boosting, but the relative drift breaks static topologies.
	LEOHigher
	// GEO parks three SµDCs over the equator for continuous coverage
	// (Fig 15) at the cost of launch mass and outer-belt radiation.
	GEO
)

// String names the placement.
func (p Placement) String() string {
	switch p {
	case LEOInPlane:
		return "LEO in-plane"
	case LEOHigher:
		return "LEO higher altitude"
	case GEO:
		return "GEO"
	default:
		return "unknown"
	}
}

// TypicalEclipseFraction returns the long-run fraction of time in Earth
// shadow: ~1/3 for LEO, near zero for GEO (§9). The orbit package computes
// exact values; this is the design rule of thumb.
func (p Placement) TypicalEclipseFraction() float64 {
	switch p {
	case GEO:
		return 0.01
	default:
		return 1.0 / 3.0
	}
}

// SuDC is one space microdatacenter design.
type SuDC struct {
	Name string
	// ComputeBudget is the power available to payload compute (the
	// paper's 4 kW baseline; "space-station class" is 256 kW). Bus loads
	// (ISLs, attitude control, thermal) are excluded, as in the paper.
	ComputeBudget units.Power
	Device        gpusim.Device
	Placement     Placement
	Hardening     Hardening
}

// Default4kW is the paper's baseline SµDC: 4 kW of RTX 3090-class compute
// flying in-plane with the constellation.
func Default4kW() SuDC {
	return SuDC{
		Name:          "SµDC-4kW",
		ComputeBudget: 4 * units.Kilowatt,
		Device:        gpusim.RTX3090,
		Placement:     LEOInPlane,
	}
}

// StationClass256kW is the paper's 256 kW "space station class" SµDC.
func StationClass256kW() SuDC {
	s := Default4kW()
	s.Name = "SµDC-256kW"
	s.ComputeBudget = 256 * units.Kilowatt
	return s
}

// Validate checks the design.
func (s SuDC) Validate() error {
	if s.ComputeBudget <= 0 {
		return fmt.Errorf("core: non-positive compute budget %v", s.ComputeBudget)
	}
	if s.Device.Name == "" {
		return fmt.Errorf("core: SµDC needs a device")
	}
	if s.Hardening.ComputeOverhead() < 1 {
		return fmt.Errorf("core: hardening overhead below 1")
	}
	return nil
}

// EffectiveComputeBudget returns the budget left after the hardening
// overhead: redundancy and software mitigation consume compute that would
// otherwise process pixels.
func (s SuDC) EffectiveComputeBudget() units.Power {
	return units.Power(float64(s.ComputeBudget) / s.Hardening.ComputeOverhead())
}

// BusOverheadPower estimates non-compute power: ISLs, ground comms,
// flywheels, flight controller, battery heating, propulsion, thermal
// management. The paper budgets up to 1 kW on the 4 kW design; we scale
// that fraction.
func (s SuDC) BusOverheadPower() units.Power {
	return units.Power(0.25 * float64(s.ComputeBudget))
}

// TotalPower is compute plus bus overhead (the paper's "<5 kW overall").
func (s SuDC) TotalPower() units.Power {
	return s.ComputeBudget + s.BusOverheadPower()
}

// SolarArrayPower returns the array size needed to run TotalPower
// continuously given the placement's eclipse fraction: the array must both
// carry the sunlit load and recharge the battery that carries the eclipse
// (assuming an ideal battery, array power = load / (1 - eclipseFraction)).
func (s SuDC) SolarArrayPower() units.Power {
	f := s.Placement.TypicalEclipseFraction()
	return units.Power(float64(s.TotalPower()) / (1 - f))
}

// SolarArrayPowerAt computes the same sizing from the actual eclipse
// fraction of a concrete orbit over a representative day.
func (s SuDC) SolarArrayPowerAt(el orbit.Elements, day time.Time) units.Power {
	f := orbit.EclipseFraction(el, day, 24*time.Hour, time.Minute)
	if f >= 1 {
		return units.Power(math.Inf(1))
	}
	return units.Power(float64(s.TotalPower()) / (1 - f))
}
