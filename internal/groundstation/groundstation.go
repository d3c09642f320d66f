// Package groundstation models the Earth-side of the downlink problem: the
// commercial Ground-Station-as-a-Service networks of the paper's Table 2,
// the per-revolution downlink-deficit model of Fig 5, and the
// $3/min/channel cost model.
package groundstation

import (
	"fmt"

	"spacedc/internal/units"
)

// Provider is one row of Table 2: a GSaaS operator and its station count by
// continent.
type Provider struct {
	Name         string
	NorthAmerica int
	SouthAmerica int
	Africa       int
	EuropeMENA   int
	AsiaPacific  int
	Antarctica   int
}

// Total returns the provider's station count.
func (p Provider) Total() int {
	return p.NorthAmerica + p.SouthAmerica + p.Africa + p.EuropeMENA + p.AsiaPacific + p.Antarctica
}

// Table2 reproduces the paper's Table 2 GSaaS inventory.
func Table2() []Provider {
	return []Provider{
		{"AWS Ground Station", 2, 1, 1, 3, 4, 0},
		{"Azure Ground Stations", 4, 1, 3, 6, 5, 0},
		{"KSat Ground Network Services", 4, 2, 4, 9, 6, 1},
		{"Viasat Real-Time Earth", 4, 1, 2, 4, 3, 0},
		{"US Electrodynamics Inc", 2, 0, 0, 0, 0, 0},
		{"Swedish Space Corporation", 3, 2, 0, 2, 3, 0},
		{"Atlas Space Operations", 4, 0, 1, 3, 5, 0},
		{"Leaf Space", 1, 0, 1, 8, 4, 0},
		{"RBC Signals", 12, 2, 3, 18, 16, 0},
	}
}

// TotalStations sums all providers' stations (the paper's ~160 worldwide).
func TotalStations() int {
	total := 0
	for _, p := range Table2() {
		total += p.Total()
	}
	return total
}

// CostPerChannelMinute is the going GSaaS rate the paper quotes for AWS,
// Azure, and KSat.
const CostPerChannelMinute = 3 * units.Dollar

// PassModel describes downlink opportunity per orbital revolution.
type PassModel struct {
	// ChannelRate is the per-channel downlink rate (Dove: 220 Mb/s).
	ChannelRate units.DataRate
	// PassSeconds is the usable contact duration of one channel-pass.
	// LEO passes above 5° elevation last roughly 8 minutes.
	PassSeconds float64
	// PeriodSeconds is the orbital revolution period.
	PeriodSeconds float64
}

// DefaultPassModel matches the paper's Fig 5 assumptions: Dove-like
// 220 Mb/s channels, ~8 minute usable passes, a ~95.7 minute period
// (550 km).
func DefaultPassModel() PassModel {
	return PassModel{
		ChannelRate:   220 * units.Mbps,
		PassSeconds:   480,
		PeriodSeconds: 5740,
	}
}

// Validate checks the model.
func (pm PassModel) Validate() error {
	if pm.ChannelRate <= 0 {
		return fmt.Errorf("groundstation: non-positive channel rate %v", pm.ChannelRate)
	}
	if pm.PassSeconds <= 0 || pm.PeriodSeconds <= 0 {
		return fmt.Errorf("groundstation: non-positive pass %v or period %v", pm.PassSeconds, pm.PeriodSeconds)
	}
	if pm.PassSeconds > pm.PeriodSeconds {
		return fmt.Errorf("groundstation: pass %v s longer than revolution %v s", pm.PassSeconds, pm.PeriodSeconds)
	}
	return nil
}

// RevolutionBudget is the Fig 5 accounting for one satellite over one
// orbital revolution.
type RevolutionBudget struct {
	GeneratedBits    units.DataSize // data produced this revolution (post early discard)
	DownlinkableBits units.DataSize // data the channel-passes could carry
	DownlinkedBits   units.DataSize // min(generated, downlinkable)
	Deficit          float64        // fraction of generated data that must be discarded
	DownlinkSeconds  float64        // transmitter-on time this revolution
	Cost             units.Money    // channel-minutes × $3
}

// Budget computes the Fig 5 downlink-deficit quantities for a satellite
// generating genRate (already including early discard) with channelPasses
// channel-passes available per revolution.
func (pm PassModel) Budget(genRate units.DataRate, channelPasses float64) RevolutionBudget {
	if channelPasses < 0 {
		channelPasses = 0
	}
	gen := genRate.Volume(pm.PeriodSeconds)
	capa := pm.ChannelRate.Volume(pm.PassSeconds * channelPasses)
	down := gen
	if capa < down {
		down = capa
	}
	var deficit float64
	if gen > 0 {
		deficit = 1 - float64(down)/float64(gen)
	}
	seconds := pm.ChannelRate.Transmit(down)
	minutes := seconds / 60
	return RevolutionBudget{
		GeneratedBits:    gen,
		DownlinkableBits: capa,
		DownlinkedBits:   down,
		Deficit:          deficit,
		DownlinkSeconds:  seconds,
		Cost:             units.Money(minutes * float64(CostPerChannelMinute)),
	}
}
