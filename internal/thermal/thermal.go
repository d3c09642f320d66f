// Package thermal models the heat rejection problem §9 flags as a key
// SµDC design consideration: kilowatts of compute dissipation must leave
// the spacecraft by radiation alone. It sizes radiator area via
// Stefan–Boltzmann, counts heat-pipe transport capacity, and estimates
// thermoelectric recovery from the waste stream.
package thermal

import (
	"fmt"
	"math"

	"spacedc/internal/units"
)

// Physical constants.
const (
	// StefanBoltzmann is σ in W/(m²·K⁴).
	StefanBoltzmann = 5.670374419e-8
	// DeepSpaceSinkK is the effective sink temperature of a radiator
	// viewing deep space.
	DeepSpaceSinkK = 3.0
	// EarthFacingSinkK approximates the effective sink of a LEO radiator
	// viewing Earth (IR + albedo load folded in).
	EarthFacingSinkK = 255.0
)

// Radiator describes one radiating surface.
type Radiator struct {
	Emissivity float64 // ε, typically 0.8–0.92 for white paint / OSRs
	PanelTempK float64 // operating temperature of the radiating surface
	SinkTempK  float64 // effective sink temperature
}

// DefaultRadiator is a deep-space-viewing optical solar reflector panel at
// a electronics-friendly 290 K.
func DefaultRadiator() Radiator {
	return Radiator{Emissivity: 0.85, PanelTempK: 290, SinkTempK: DeepSpaceSinkK}
}

// Validate checks the radiator.
func (r Radiator) Validate() error {
	if r.Emissivity <= 0 || r.Emissivity > 1 {
		return fmt.Errorf("thermal: emissivity %v outside (0, 1]", r.Emissivity)
	}
	if r.PanelTempK <= 0 {
		return fmt.Errorf("thermal: non-positive panel temperature %v", r.PanelTempK)
	}
	if r.SinkTempK < 0 || r.SinkTempK >= r.PanelTempK {
		return fmt.Errorf("thermal: sink %v K must sit below panel %v K", r.SinkTempK, r.PanelTempK)
	}
	return nil
}

// FluxWM2 returns the net radiated flux per unit area.
func (r Radiator) FluxWM2() float64 {
	t4 := math.Pow(r.PanelTempK, 4) - math.Pow(r.SinkTempK, 4)
	return r.Emissivity * StefanBoltzmann * t4
}

// AreaForLoad returns the radiator area (m²) needed to reject the load.
func (r Radiator) AreaForLoad(load units.Power) (float64, error) {
	if err := r.Validate(); err != nil {
		return 0, err
	}
	flux := r.FluxWM2()
	if flux <= 0 {
		return 0, fmt.Errorf("thermal: radiator rejects nothing")
	}
	return float64(load) / flux, nil
}

// HeatPipe describes axially grooved / loop heat pipe transport capacity.
type HeatPipe struct {
	// CapacityWm is the heat-transport capability in watt·meters (a pipe
	// carrying 100 W over 2 m needs 200 W·m).
	CapacityWm float64
}

// DefaultHeatPipe is a constant-conductance ammonia pipe at 500 W·m.
func DefaultHeatPipe() HeatPipe { return HeatPipe{CapacityWm: 500} }

// Validate rejects a pipe that cannot transport heat.
func (hp HeatPipe) Validate() error {
	if hp.CapacityWm <= 0 || math.IsNaN(hp.CapacityWm) || math.IsInf(hp.CapacityWm, 0) {
		return fmt.Errorf("thermal: non-positive heat-pipe capacity %v W·m", hp.CapacityWm)
	}
	return nil
}

// PipesNeeded returns how many pipes move the load over runM meters, with
// one spare for single-failure tolerance.
func (hp HeatPipe) PipesNeeded(load units.Power, runM float64) (int, error) {
	if err := hp.Validate(); err != nil {
		return 0, err
	}
	if runM <= 0 {
		return 0, fmt.Errorf("thermal: non-positive transport run %v", runM)
	}
	demand := float64(load) * runM
	n := int(math.Ceil(demand / hp.CapacityWm))
	return n + 1, nil
}

// ThermoelectricRecovery estimates the electric power a thermoelectric
// generator harvests from the waste stream (the §9 nod to TEG reuse, as
// argued for terrestrial datacenters): a fraction of Carnot between the
// hot electronics and the radiator, scaled by device quality.
type ThermoelectricRecovery struct {
	HotK  float64 // electronics/coolant hot side
	ColdK float64 // radiator cold side
	// QualityFactor is the achieved fraction of Carnot efficiency
	// (ZT-limited; real TEGs reach ~15–20% of Carnot).
	QualityFactor float64
}

// Efficiency returns the electrical fraction of heat recovered.
func (t ThermoelectricRecovery) Efficiency() float64 {
	if t.HotK <= 0 || t.ColdK <= 0 || t.HotK <= t.ColdK {
		return 0
	}
	carnot := 1 - t.ColdK/t.HotK
	q := t.QualityFactor
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return carnot * q
}

// Recovered returns the electric power recovered from the waste load.
func (t ThermoelectricRecovery) Recovered(waste units.Power) units.Power {
	return units.Power(float64(waste) * t.Efficiency())
}

// Budget sizes the whole rejection chain for a SµDC compute load.
type Budget struct {
	Load           units.Power
	RadiatorAreaM2 float64
	HeatPipes      int
	TEGRecovered   units.Power
}

// SizeBudget runs the default chain: deep-space radiator at 290 K, 3 m
// pipe runs, and a 15%-of-Carnot TEG between 350 K electronics and the
// 290 K radiator.
func SizeBudget(load units.Power) (Budget, error) {
	rad := DefaultRadiator()
	area, err := rad.AreaForLoad(load)
	if err != nil {
		return Budget{}, err
	}
	pipes, err := DefaultHeatPipe().PipesNeeded(load, 3)
	if err != nil {
		return Budget{}, err
	}
	teg := ThermoelectricRecovery{HotK: 350, ColdK: 290, QualityFactor: 0.15}
	return Budget{
		Load:           load,
		RadiatorAreaM2: area,
		HeatPipes:      pipes,
		TEGRecovered:   teg.Recovered(load),
	}, nil
}
