// Package resilience is the radiation- and thermal-aware resilience layer
// for the SµDC compute pipeline. It closes the loop the paper's §9 leaves
// qualitative: an orbit-driven environment trace (SAA crossings, eclipse
// phases) modulates an SEU hazard rate that the sched discrete-event
// simulator injects into batch execution, and configurable mitigation
// policies — retry with exponential backoff, checkpoint/restart at the
// Young/Daly interval, dual/TMR replicated execution with voting, and the
// SAA compute pause — recover from the resulting corruption and device
// resets. A thermal governor derates the device when sustained dissipation
// exceeds the radiator's capacity and sheds low-priority load upstream.
// The Scenario runner evaluates policies side by side, reporting
// availability, goodput, latency, and energy overhead.
package resilience

import (
	"fmt"
	"slices"

	"spacedc/internal/sched"
)

// Policy pairs a recovery strategy with the operational knobs that ride
// along with it.
type Policy struct {
	Name string
	// Recovery handles upset batches; nil means no mitigation.
	Recovery sched.RecoveryPolicy
	// PauseInSAA suspends batch launches inside the anomaly (the §9
	// COTS-with-SAA-pause strategy; radiation.COTSWithSAAPause).
	PauseInSAA bool
}

// policies is every recovery policy by name: the §9 mitigation ladder in
// increasing protection (and cost) order and the SAA pause, which
// StandardPolicies returns, then dual modular redundancy, which a design
// may name but the ladder leaves out. The names are econ's recovery names.
var policies = []Policy{
	{Name: "none"},
	{Name: "retry", Recovery: Retry{}},
	{Name: "checkpoint", Recovery: Checkpoint{CheckpointSec: 1, RestartSec: 1}},
	{Name: "tmr", Recovery: Replicated{N: 3}},
	{Name: "saa-pause", Recovery: Retry{}, PauseInSAA: true},
	{Name: "dmr", Recovery: Replicated{N: 2}},
}

// StandardPolicies returns the §9 mitigation ladder in increasing
// protection (and cost) order, plus the SAA pause.
func StandardPolicies() []Policy {
	return slices.Clone(policies[:len(policies)-1])
}

// PolicyNamed returns the recovery policy with the given name.
func PolicyNamed(name string) (Policy, error) {
	if i := slices.IndexFunc(policies, func(p Policy) bool { return p.Name == name }); i >= 0 {
		return policies[i], nil
	}
	return Policy{}, fmt.Errorf("resilience: unknown recovery policy %q", name)
}

// Scenario couples a base pipeline configuration to an environment and a
// hazard model; Evaluate runs it under one mitigation policy.
type Scenario struct {
	Base   sched.Config
	Proc   sched.Processor
	Env    *EnvTrace
	Hazard HazardModel
}

// The device's reset split: the share of upsets that hard-reset it
// instead of silently corrupting the batch, and the reboot time.
const (
	resetFraction = 0.1
	resetMTTRSec  = 30
)

// Report summarizes one policy evaluation.
type Report struct {
	Policy string
	Stats  sched.Stats
	// Availability is the fraction of the mission the device was able to
	// compute: 1 minus reset downtime and (for pausing policies) the SAA
	// pause share.
	Availability float64
	// GoodputFPS is uncorrupted processed frames per simulated second.
	GoodputFPS float64
	// EnergyOverhead is total energy relative to the fault-free baseline
	// (1 = parity).
	EnergyOverhead float64
}

// Baseline runs the scenario fault-free.
func (s Scenario) Baseline() (sched.Stats, error) {
	cfg := s.Base
	cfg.Faults = nil
	return sched.Simulate(cfg, s.Proc)
}

// Evaluate runs the scenario under one policy. baseline is the fault-free
// stats from Baseline (recomputed when the zero value is passed).
func (s Scenario) Evaluate(pol Policy, baseline sched.Stats) (Report, error) {
	if s.Env == nil {
		return Report{}, fmt.Errorf("resilience: scenario has no environment trace")
	}
	if baseline == (sched.Stats{}) {
		var err error
		baseline, err = s.Baseline()
		if err != nil {
			return Report{}, err
		}
	}
	cfg := s.Base
	faults := &sched.FaultConfig{
		Hazard:        s.Hazard.RateFunc(s.Env),
		ResetFraction: resetFraction,
		ResetMTTRSec:  resetMTTRSec,
		Recovery:      pol.Recovery,
	}
	if pol.PauseInSAA {
		faults.PauseActive = s.Env.InSAAAt
	}
	cfg.Faults = faults
	st, err := sched.Simulate(cfg, s.Proc)
	if err != nil {
		return Report{}, err
	}
	pauseSec := 0.0
	if pol.PauseInSAA {
		pauseSec = s.Env.SAAFraction() * cfg.DurationSec
	}
	rep := Report{
		Policy:       pol.Name,
		Stats:        st,
		Availability: 1 - (st.DowntimeSec+pauseSec)/cfg.DurationSec,
		GoodputFPS:   float64(st.Processed) / cfg.DurationSec,
	}
	if rep.Availability < 0 {
		rep.Availability = 0
	}
	if baseline.EnergyJ > 0 {
		rep.EnergyOverhead = st.EnergyJ / baseline.EnergyJ
	}
	return rep, nil
}

// EvaluateAll runs every policy against one shared fault-free baseline.
func (s Scenario) EvaluateAll(policies []Policy) ([]Report, error) {
	baseline, err := s.Baseline()
	if err != nil {
		return nil, err
	}
	reports := make([]Report, 0, len(policies))
	for _, pol := range policies {
		rep, err := s.Evaluate(pol, baseline)
		if err != nil {
			return nil, fmt.Errorf("resilience: policy %s: %w", pol.Name, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}
