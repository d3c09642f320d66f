package core

import (
	"fmt"

	"spacedc/internal/units"
)

// Disaggregation models the §9 alternative to a monolithic SµDC: several
// free-flying modules — compute, power generation, radiators — forming one
// logical satellite connected by short-range ISLs and wireless power
// transfer. Compute hardware is outdated in ~4 years while solar arrays
// last decades, so disaggregation lets operators replace just the compute
// module, at the price of extra bus mass and WPT losses.

// Module is one physical element of a disaggregated SµDC.
type Module struct {
	Name string
	// MassKg is the module's launch mass including its own bus.
	MassKg float64
	// ReplacementYears is how often the module must be replaced (0 =
	// lasts the mission).
	ReplacementYears float64
	// BuildCost of one unit.
	BuildCost units.Money
}

// DisaggregatedSuDC is a SµDC split into modules.
type DisaggregatedSuDC struct {
	Modules []Module
	// WPTEfficiency is the wireless power transfer efficiency from the
	// power module to the compute modules (retrodirective arrays reach
	// high efficiency at short range).
	WPTEfficiency float64
	// GeneratedPower is the power module's output.
	GeneratedPower units.Power
}

// DefaultDisaggregated splits the paper's 4 kW SµDC three ways: a compute
// module on a 4-year refresh (commodity hardware lifetime), and power and
// thermal modules lasting the full mission.
func DefaultDisaggregated() DisaggregatedSuDC {
	return DisaggregatedSuDC{
		Modules: []Module{
			{Name: "compute", MassKg: 800, ReplacementYears: 4, BuildCost: 12 * units.Million},
			{Name: "power", MassKg: 900, ReplacementYears: 0, BuildCost: 6 * units.Million},
			{Name: "thermal", MassKg: 500, ReplacementYears: 0, BuildCost: 4 * units.Million},
		},
		WPTEfficiency:  0.85,
		GeneratedPower: 5.9 * units.Kilowatt, // 5 kW delivered / 0.85
	}
}

// Validate checks the design.
func (d DisaggregatedSuDC) Validate() error {
	if len(d.Modules) == 0 {
		return fmt.Errorf("core: disaggregated SµDC needs modules")
	}
	if d.WPTEfficiency <= 0 || d.WPTEfficiency > 1 {
		return fmt.Errorf("core: WPT efficiency %v outside (0, 1]", d.WPTEfficiency)
	}
	if d.GeneratedPower <= 0 {
		return fmt.Errorf("core: non-positive generated power")
	}
	for _, m := range d.Modules {
		if m.MassKg <= 0 {
			return fmt.Errorf("core: module %q has non-positive mass", m.Name)
		}
		if m.ReplacementYears < 0 {
			return fmt.Errorf("core: module %q has negative replacement period", m.Name)
		}
	}
	return nil
}

// LifecycleCost returns the total cost over missionYears: initial build
// and launch of every module plus replacement launches for modules that
// wear out. Replacing a module relaunches only that module — the
// disaggregation advantage.
func (d DisaggregatedSuDC) LifecycleCost(missionYears float64, launchPerKg units.Money) units.Money {
	total := 0.0
	for _, m := range d.Modules {
		unit := float64(m.BuildCost) + float64(launchPerKg)*m.MassKg
		launches := 1.0
		if m.ReplacementYears > 0 {
			launches += float64(int(missionYears / m.ReplacementYears))
		}
		total += unit * launches
	}
	return units.Money(total)
}

// MonolithicLifecycleCost is the comparison point: one integrated SµDC
// whose whole stack must be relaunched when the compute hardware ages out.
func MonolithicLifecycleCost(cm CostModel, missionYears, computeRefreshYears float64) units.Money {
	unit := float64(cm.SuDCCapex(1))
	launches := 1.0
	if computeRefreshYears > 0 {
		launches += float64(int(missionYears / computeRefreshYears))
	}
	return units.Money(unit * launches)
}
