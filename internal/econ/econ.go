// Package econ is the constellation cost model behind the design-space
// optimizer: it prices a candidate constellation design — EO satellites,
// SµDC compute satellites, ISL terminals, and the solar/radiator power
// systems that carry the compute — from first principles ($/kg launch
// mass, specific power, unit hardware costs) and amortizes the total over
// a mission horizon into a $/hour denominator for goodput-per-dollar
// objectives.
//
// The model follows the shape of the paper's §6 economics argument (SµDC
// launch capex vs recurring downlink spend) and the Demo-Space
// orbital-economics calculator: wet mass drives launch cost through a
// $/kg rate, compute power drives solar-array and radiator mass through
// specific-power densities, and everything amortizes linearly. Every
// entry point validates its inputs and returns an error — never a NaN,
// an Inf, or a panic — so a heuristic search can feed it arbitrary
// candidates safely.
package econ

import (
	"fmt"
	"math"

	"spacedc/internal/units"
)

// Recovery-policy names the cost model knows how to price. They are the
// names resilience.PolicyNamed resolves.
const (
	RecoveryNone       = "none"
	RecoveryRetry      = "retry"
	RecoveryCheckpoint = "checkpoint"
	RecoveryDMR        = "dmr"
	RecoveryTMR        = "tmr"
	RecoverySAAPause   = "saa-pause"
)

// RecoveryDeviceFactor returns the hardware multiplier a recovery policy
// imposes on a SµDC's device complement: replicated execution buys its
// redundancy in silicon (DMR 2×, TMR 3×), checkpointing pays a modest
// non-volatile-buffer overhead, and the software-only policies are free.
func RecoveryDeviceFactor(name string) (float64, error) {
	switch name {
	case RecoveryNone, RecoveryRetry, RecoverySAAPause:
		return 1, nil
	case RecoveryCheckpoint:
		return 1.15, nil
	case RecoveryDMR:
		return 2, nil
	case RecoveryTMR:
		return 3, nil
	}
	return 0, fmt.Errorf("econ: unknown recovery policy %q", name)
}

// CostModel prices one constellation design. The zero value is unusable;
// start from DefaultCostModel and override fields.
type CostModel struct {
	// LaunchPerKg is the $/kg launch rate to the reference LEO altitude
	// (RefAltitudeKm).
	LaunchPerKg units.Money
	// RefAltitudeKm anchors the altitude surcharge (default 550 km).
	RefAltitudeKm float64
	// AltitudeSurcharge is the fractional LaunchPerKg increase per
	// 1000 km above the reference altitude (injection Δv costs mass).
	// Below the reference the rate never drops under half.
	AltitudeSurcharge float64
	// GEOLaunchMult multiplies the launch rate for mass delivered to GEO
	// (the Fig 15 star's SµDCs).
	GEOLaunchMult float64

	// EOSatMassKg / EOSatCost price one EO satellite bus (camera,
	// avionics, no ISL terminals — those are itemized separately).
	EOSatMassKg float64
	EOSatCost   units.Money

	// SuDCBusMassKg / SuDCBusCost price one SµDC's structure and
	// avionics, excluding devices, power, thermal, and terminals.
	SuDCBusMassKg float64
	SuDCBusCost   units.Money

	// DeviceMassKg / DeviceCost / DevicePowerW price one compute device
	// (board + shielding) and set its dissipation for power sizing.
	DeviceMassKg float64
	DeviceCost   units.Money
	DevicePowerW float64

	// PowerOverhead scales device power into bus power (conversion
	// losses, avionics — an orbital PUE; ≥ 1).
	PowerOverhead float64
	// SolarSpecificWPerKg is the solar-array specific power (the
	// Demo-Space slider spans 3–75 W/kg).
	SolarSpecificWPerKg float64
	SolarCostPerW       units.Money
	// RadiatorSpecificWPerKg is heat rejected per kilogram of radiator.
	RadiatorSpecificWPerKg float64
	RadiatorCostPerW       units.Money

	// ISLTerminalMassKg / ISLTerminalCost price one ISL terminal (either
	// end of a link).
	ISLTerminalMassKg float64
	ISLTerminalCost   units.Money

	// AmortizationYears spreads the one-time total into the $/hour
	// denominator.
	AmortizationYears float64
}

// DefaultCostModel returns conservative near-term numbers: Falcon-9-class
// launch, mid-range specific power, RTX-3090-class device boards.
func DefaultCostModel() CostModel {
	return CostModel{
		LaunchPerKg:       2940 * units.Dollar,
		RefAltitudeKm:     550,
		AltitudeSurcharge: 0.05,
		GEOLaunchMult:     4,

		EOSatMassKg: 120,
		EOSatCost:   1.5 * units.Million,

		SuDCBusMassKg: 400,
		SuDCBusCost:   8 * units.Million,

		DeviceMassKg: 4,
		DeviceCost:   25e3 * units.Dollar,
		DevicePowerW: 350,

		PowerOverhead:          1.2,
		SolarSpecificWPerKg:    40,
		SolarCostPerW:          150 * units.Dollar,
		RadiatorSpecificWPerKg: 60,
		RadiatorCostPerW:       30 * units.Dollar,

		ISLTerminalMassKg: 6,
		ISLTerminalCost:   300e3 * units.Dollar,

		AmortizationYears: 5,
	}
}

// finitePositive reports whether v is a usable positive model parameter.
func finitePositive(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// Validate rejects models with non-finite or non-positive parameters.
func (m CostModel) Validate() error {
	checks := []struct {
		name string
		v    float64
	}{
		{"launch $/kg", float64(m.LaunchPerKg)},
		{"reference altitude", m.RefAltitudeKm},
		{"GEO launch multiplier", m.GEOLaunchMult},
		{"EO sat mass", m.EOSatMassKg},
		{"EO sat cost", float64(m.EOSatCost)},
		{"SµDC bus mass", m.SuDCBusMassKg},
		{"SµDC bus cost", float64(m.SuDCBusCost)},
		{"device mass", m.DeviceMassKg},
		{"device cost", float64(m.DeviceCost)},
		{"device power", m.DevicePowerW},
		{"power overhead", m.PowerOverhead},
		{"solar specific power", m.SolarSpecificWPerKg},
		{"solar $/W", float64(m.SolarCostPerW)},
		{"radiator specific power", m.RadiatorSpecificWPerKg},
		{"radiator $/W", float64(m.RadiatorCostPerW)},
		{"ISL terminal mass", m.ISLTerminalMassKg},
		{"ISL terminal cost", float64(m.ISLTerminalCost)},
		{"amortization horizon", m.AmortizationYears},
	}
	for _, c := range checks {
		if !finitePositive(c.v) {
			return fmt.Errorf("econ: %s must be finite and positive, got %v", c.name, c.v)
		}
	}
	if math.IsNaN(m.AltitudeSurcharge) || math.IsInf(m.AltitudeSurcharge, 0) || m.AltitudeSurcharge < 0 {
		return fmt.Errorf("econ: altitude surcharge must be finite and non-negative, got %v", m.AltitudeSurcharge)
	}
	if m.PowerOverhead < 1 {
		return fmt.Errorf("econ: power overhead %v < 1", m.PowerOverhead)
	}
	if m.GEOLaunchMult < 1 {
		return fmt.Errorf("econ: GEO launch multiplier %v < 1", m.GEOLaunchMult)
	}
	return nil
}

// Inter-shell rule names for multi-shell designs, mirroring
// netsim.InterShellKind.String().
const (
	InterShellAligned = "aligned"
	InterShellNearest = "nearest"
)

// ShellSpacingKm is the altitude gap between consecutive shells of a
// multi-shell design: shell i sits at AltitudeKm + i·ShellSpacingKm. It
// sizes both the per-shell launch surcharge and the cross-link range.
const ShellSpacingKm = 250

// Design is one constellation candidate the model prices: a Walker-style
// constellation of Planes identical planes, each carrying SatsPerPlane EO
// satellites, with SµDC compute either split across the planes (the
// in-plane cluster formation) or parked in a GEO star.
type Design struct {
	Planes       int
	SatsPerPlane int
	AltitudeKm   float64
	// K is the ISL receiver fan-in per SµDC (2 = ring); each EO satellite
	// carries two span terminals for the in-plane fabric. Ignored for GEO
	// designs, whose satellites carry a single uplink terminal.
	K int
	// Split is the number of SµDCs per plane for cluster designs.
	Split int
	// GEO parks the SµDCs in a GEO star of GEOSinks satellites instead
	// of splitting them across the planes.
	GEO      bool
	GEOSinks int
	// DevicesPerSuDC is the compute complement before the recovery
	// policy's replication factor.
	DevicesPerSuDC int
	// Recovery names the resilience policy riding on the design; it
	// scales the device complement via RecoveryDeviceFactor.
	Recovery string

	// Shells stacks the whole cluster design Shells times, each copy one
	// ShellSpacingKm above the last (shell i launches at its own
	// altitude-surcharged $/kg). 0 and 1 both mean the plain single-shell
	// design. GEO designs cannot stack.
	Shells int
	// InterShell names the cross-link rule between adjacent shells
	// (InterShellAligned or InterShellNearest; empty means aligned). Each
	// adjacent pair buys one cross-link terminal pair per satellite per
	// plane, launched at the two shells' own rates.
	InterShell string
}

// Validate rejects structurally impossible designs.
func (d Design) Validate() error {
	if d.Planes < 1 {
		return fmt.Errorf("econ: design needs ≥ 1 plane, got %d", d.Planes)
	}
	if d.SatsPerPlane < 1 {
		return fmt.Errorf("econ: design needs ≥ 1 satellite per plane, got %d", d.SatsPerPlane)
	}
	if !finitePositive(d.AltitudeKm) {
		return fmt.Errorf("econ: altitude must be finite and positive, got %v", d.AltitudeKm)
	}
	if d.GEO {
		if d.GEOSinks < 1 {
			return fmt.Errorf("econ: GEO design needs ≥ 1 sink, got %d", d.GEOSinks)
		}
	} else {
		if d.K < 2 || d.K%2 != 0 {
			return fmt.Errorf("econ: cluster design needs even K ≥ 2, got %d", d.K)
		}
		if d.Split < 1 {
			return fmt.Errorf("econ: cluster design needs ≥ 1 SµDC per plane, got %d", d.Split)
		}
	}
	if d.DevicesPerSuDC < 1 {
		return fmt.Errorf("econ: design needs ≥ 1 device per SµDC, got %d", d.DevicesPerSuDC)
	}
	if _, err := RecoveryDeviceFactor(d.Recovery); err != nil {
		return err
	}
	if d.Shells < 0 {
		return fmt.Errorf("econ: negative shell count %d", d.Shells)
	}
	if d.Shells > 1 && d.GEO {
		return fmt.Errorf("econ: GEO designs cannot stack %d shells", d.Shells)
	}
	switch d.InterShell {
	case "", InterShellAligned, InterShellNearest:
	default:
		return fmt.Errorf("econ: unknown inter-shell rule %q", d.InterShell)
	}
	return nil
}

// shellCount normalizes Shells: 0 and 1 are both the single-shell design.
func (d Design) shellCount() int {
	if d.Shells < 2 {
		return 1
	}
	return d.Shells
}

// crossLinkPairs returns the constellation-wide count of inter-shell
// cross-link pairs: one per satellite per plane per adjacent shell pair.
func (d Design) crossLinkPairs() int {
	return (d.shellCount() - 1) * d.Planes * d.SatsPerPlane
}

// TotalSats returns the EO satellite population across all shells.
func (d Design) TotalSats() int { return d.shellCount() * d.Planes * d.SatsPerPlane }

// SuDCs returns the SµDC count: Split per plane per shell for cluster
// designs, the shared GEO star size otherwise.
func (d Design) SuDCs() int {
	if d.GEO {
		return d.GEOSinks
	}
	return d.shellCount() * d.Planes * d.Split
}

// ISLTerminals returns the terminal count across the constellation: two
// span terminals per EO satellite plus K receivers per SµDC for cluster
// fabrics (both per shell), plus two terminals per inter-shell cross-link
// pair; one uplink per satellite plus one receiver per uplink for GEO
// stars.
func (d Design) ISLTerminals() int {
	if d.GEO {
		return 2 * d.TotalSats()
	}
	return 2*d.TotalSats() + d.K*d.SuDCs() + 2*d.crossLinkPairs()
}

// Breakdown itemizes one design's cost.
type Breakdown struct {
	EOSats       int
	SuDCs        int
	ISLTerminals int
	// EffectiveDevices is the constellation-wide device count after the
	// recovery policy's replication factor.
	EffectiveDevices float64
	// PowerW is the constellation-wide bus power the solar arrays and
	// radiators are sized for.
	PowerW float64
	// WetMassKg is the total launched mass.
	WetMassKg float64

	LaunchCost   units.Money
	HardwareCost units.Money
	TotalCost    units.Money
	// PerHour amortizes TotalCost over the model's horizon.
	PerHour units.Money
}

// launchRate returns the effective $/kg at altKm, monotone non-decreasing
// in altitude and never below half the reference rate.
func (m CostModel) launchRate(altKm float64) float64 {
	factor := 1 + m.AltitudeSurcharge*(altKm-m.RefAltitudeKm)/1000
	if factor < 0.5 {
		factor = 0.5
	}
	return float64(m.LaunchPerKg) * factor
}

// Cost prices a design. It validates both inputs and guarantees a finite,
// strictly positive breakdown on success — degenerate designs cannot
// score an infinite goodput-per-dollar by costing nothing.
func Cost(m CostModel, d Design) (Breakdown, error) {
	if err := m.Validate(); err != nil {
		return Breakdown{}, err
	}
	if err := d.Validate(); err != nil {
		return Breakdown{}, err
	}
	if d.shellCount() > 1 {
		return costMultiShell(m, d)
	}
	factor, err := RecoveryDeviceFactor(d.Recovery)
	if err != nil {
		return Breakdown{}, err
	}

	b := Breakdown{
		EOSats:           d.TotalSats(),
		SuDCs:            d.SuDCs(),
		ISLTerminals:     d.ISLTerminals(),
		EffectiveDevices: factor * float64(d.DevicesPerSuDC) * float64(d.SuDCs()),
	}
	b.PowerW = b.EffectiveDevices * m.DevicePowerW * m.PowerOverhead

	// Mass: EO buses, SµDC buses, devices, power and thermal systems
	// sized to the bus power, and ISL terminals. Terminal mass is split
	// between the LEO and GEO segments for star designs.
	solarKg := b.PowerW / m.SolarSpecificWPerKg
	radiatorKg := b.PowerW / m.RadiatorSpecificWPerKg
	eoTerm := 0
	sudcTerm := 0
	if d.GEO {
		eoTerm = b.EOSats // one uplink terminal per satellite
		sudcTerm = b.ISLTerminals - eoTerm
	} else {
		eoTerm = 2 * b.EOSats
		sudcTerm = d.K * b.SuDCs
	}
	leoMass := float64(b.EOSats)*m.EOSatMassKg + float64(eoTerm)*m.ISLTerminalMassKg
	sudcMass := float64(b.SuDCs)*m.SuDCBusMassKg +
		b.EffectiveDevices*m.DeviceMassKg +
		solarKg + radiatorKg +
		float64(sudcTerm)*m.ISLTerminalMassKg

	leoRate := m.launchRate(d.AltitudeKm)
	launch := leoMass * leoRate
	if d.GEO {
		launch += sudcMass * float64(m.LaunchPerKg) * m.GEOLaunchMult
	} else {
		launch += sudcMass * leoRate
	}
	b.WetMassKg = leoMass + sudcMass

	hardware := float64(b.EOSats)*float64(m.EOSatCost) +
		float64(b.SuDCs)*float64(m.SuDCBusCost) +
		b.EffectiveDevices*float64(m.DeviceCost) +
		b.PowerW*(float64(m.SolarCostPerW)+float64(m.RadiatorCostPerW)) +
		float64(b.ISLTerminals)*float64(m.ISLTerminalCost)

	b.LaunchCost = units.Money(launch)
	b.HardwareCost = units.Money(hardware)
	b.TotalCost = units.Money(launch + hardware)
	b.PerHour = units.Money(float64(b.TotalCost) / (m.AmortizationYears * 8760))

	// Extreme-but-valid parameters can overflow to +Inf; a search must
	// see an error, not an infinite denominator.
	for _, v := range []float64{b.WetMassKg, b.PowerW, float64(b.LaunchCost),
		float64(b.HardwareCost), float64(b.TotalCost), float64(b.PerHour)} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Breakdown{}, fmt.Errorf("econ: cost overflow for design %+v", d)
		}
	}
	if b.TotalCost <= 0 || b.PerHour <= 0 {
		return Breakdown{}, fmt.Errorf("econ: non-positive cost %v for design %+v", b.TotalCost, d)
	}
	return b, nil
}

// costMultiShell prices a Shells-deep stack as the exact sum of its
// shells — each priced through the unchanged single-shell path at its own
// altitude (base + i·ShellSpacingKm, so higher shells pay the launch
// surcharge) — plus the inter-shell cross-link terminals: one pair per
// satellite per plane per adjacent shell pair, each end launched at its
// own shell's rate. Summing the single-shell breakdowns field by field
// (rather than scaling one) keeps "a 2-shell design costs exactly the sum
// of its shells plus cross terminals" an identity, not an approximation —
// the property the econ test suite pins.
func costMultiShell(m CostModel, d Design) (Breakdown, error) {
	var b Breakdown
	var launch, hardware float64
	shells := d.shellCount()
	for i := 0; i < shells; i++ {
		sd := d
		sd.Shells = 0
		sd.InterShell = ""
		sd.AltitudeKm = d.AltitudeKm + float64(i)*ShellSpacingKm
		sb, err := Cost(m, sd)
		if err != nil {
			return Breakdown{}, fmt.Errorf("econ: shell %d: %w", i, err)
		}
		b.EOSats += sb.EOSats
		b.SuDCs += sb.SuDCs
		b.ISLTerminals += sb.ISLTerminals
		b.EffectiveDevices += sb.EffectiveDevices
		b.PowerW += sb.PowerW
		b.WetMassKg += sb.WetMassKg
		launch += float64(sb.LaunchCost)
		hardware += float64(sb.HardwareCost)
	}

	// Cross-link terminals: pairsPerGap pairs between each adjacent shell
	// pair, the lower terminal launched at shell i's rate and the upper at
	// shell i+1's.
	pairsPerGap := d.Planes * d.SatsPerPlane
	var crossLaunch, crossHardware, crossMass float64
	for i := 0; i+1 < shells; i++ {
		loRate := m.launchRate(d.AltitudeKm + float64(i)*ShellSpacingKm)
		hiRate := m.launchRate(d.AltitudeKm + float64(i+1)*ShellSpacingKm)
		crossLaunch += float64(pairsPerGap) * m.ISLTerminalMassKg * (loRate + hiRate)
		crossHardware += float64(2*pairsPerGap) * float64(m.ISLTerminalCost)
		crossMass += float64(2*pairsPerGap) * m.ISLTerminalMassKg
	}
	b.ISLTerminals += 2 * (shells - 1) * pairsPerGap
	b.WetMassKg += crossMass
	launch += crossLaunch
	hardware += crossHardware

	b.LaunchCost = units.Money(launch)
	b.HardwareCost = units.Money(hardware)
	b.TotalCost = units.Money(launch + hardware)
	b.PerHour = units.Money(float64(b.TotalCost) / (m.AmortizationYears * 8760))

	for _, v := range []float64{b.WetMassKg, b.PowerW, float64(b.LaunchCost),
		float64(b.HardwareCost), float64(b.TotalCost), float64(b.PerHour)} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Breakdown{}, fmt.Errorf("econ: cost overflow for design %+v", d)
		}
	}
	return b, nil
}
