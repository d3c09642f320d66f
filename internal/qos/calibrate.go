package qos

import (
	"fmt"

	"spacedc/internal/netsim"
)

// CalibrateNetwork measures a NetworkConfig from the flow-level simulator
// so the engine's fluid network stage reproduces netsim's operating
// points: one lightly-loaded run (10% of the scenario's offered load)
// yields the uncongested base latency, and one saturating run (4×) yields
// the deliverable capacity at the bottleneck. Both runs are deterministic,
// so a calibration is as reproducible as the runs it feeds.
func CalibrateNetwork(base netsim.Scenario) (NetworkConfig, error) {
	light := base
	light.Name = base.Name + "-calibrate-light"
	light.PerSat = base.PerSat / 10
	lr, err := netsim.Run(light)
	if err != nil {
		return NetworkConfig{}, fmt.Errorf("qos: light calibration run: %w", err)
	}

	sat := base
	sat.Name = base.Name + "-calibrate-saturated"
	sat.PerSat = base.PerSat * 4
	sr, err := netsim.Run(sat)
	if err != nil {
		return NetworkConfig{}, fmt.Errorf("qos: saturated calibration run: %w", err)
	}

	cfg := NetworkConfig{
		CapacityBps:    float64(sr.DeliveredRate),
		BaseLatencySec: lr.LatencySec.Mean,
	}
	if cfg.CapacityBps <= 0 {
		return NetworkConfig{}, fmt.Errorf("qos: saturated run delivered nothing (%v)", sr.DeliveredRate)
	}
	return cfg, nil
}

// Preset policy names accepted by PresetPolicy (and the sudcsimd workload
// spec's "policy" field).
const (
	PolicyOpen          = "open"
	PolicyPriority      = "priority"
	PolicyPriorityRetry = "priority-retry"
)

// PolicyNames lists the preset policies in study order.
func PolicyNames() []string {
	return []string{PolicyOpen, PolicyPriority, PolicyPriorityRetry}
}

// PresetPolicy builds one of the named study policies sized for an
// aggregate sustained admission capacity of admitPerSec requests/s across
// the default three-class mix:
//
//   - "open": no admission control, no shedding, no retry — the baseline
//     that demonstrates collapse under overload.
//   - "priority": per-class token buckets (urgent oversized and borrowing
//     from the best-effort lender, best-effort taking the residual) plus
//     deadline-aware shedding.
//   - "priority-retry": "priority" plus bounded exponential-backoff retry
//     with jitter.
func PresetPolicy(name string, admitPerSec float64) (Policy, error) {
	if admitPerSec <= 0 {
		return Policy{}, fmt.Errorf("qos: non-positive admission capacity %v", admitPerSec)
	}
	// Shares follow workload.DefaultClasses (0.15/0.35/0.50), with urgent
	// oversized 2× so its own bucket absorbs surges before borrowing.
	urgent := 0.30 * admitPerSec
	standard := 0.35 * admitPerSec
	bestEffort := admitPerSec - urgent - standard
	admission := []ClassPolicy{
		{RatePerSec: urgent, Burst: 4 * urgent, Borrow: true},
		{RatePerSec: standard, Burst: 2 * standard},
		{RatePerSec: bestEffort, Burst: bestEffort, Lend: true},
	}
	switch name {
	case PolicyOpen:
		// The baseline is genuinely QoS-free: no admission, no shedding, no
		// retry, and a class-blind FIFO through both stages.
		return Policy{Name: PolicyOpen, ClassBlind: true}, nil
	case PolicyPriority:
		return Policy{Name: PolicyPriority, Admission: admission, DeadlineShed: true}, nil
	case PolicyPriorityRetry:
		return Policy{
			Name:         PolicyPriorityRetry,
			Admission:    admission,
			DeadlineShed: true,
			Retry: RetryPolicy{
				MaxAttempts:    4,
				BaseBackoffSec: 2,
				BackoffFactor:  2,
				JitterFrac:     0.5,
			},
		}, nil
	}
	return Policy{}, fmt.Errorf("qos: unknown policy preset %q (have %v)", name, PolicyNames())
}

// Preset campaign names accepted by PresetCampaign.
const (
	CampaignNone           = "none"
	CampaignGroundOutage   = "ground-outage"
	CampaignSEUBurst       = "seu-burst"
	CampaignRadiatorDerate = "radiator-derate"
	CampaignCombined       = "combined"
)

// CampaignNames lists the preset fault campaigns.
func CampaignNames() []string {
	return []string{CampaignNone, CampaignGroundOutage, CampaignSEUBurst, CampaignRadiatorDerate, CampaignCombined}
}

// PresetCampaign builds one of the named fault campaigns over the window
// [startSec, startSec+durSec) — scheduled mid-surge by the callers so the
// faults land while demand is elevated.
func PresetCampaign(name string, startSec, durSec float64) ([]Fault, error) {
	if durSec <= 0 || startSec < 0 {
		return nil, fmt.Errorf("qos: invalid campaign window start %v dur %v", startSec, durSec)
	}
	end := startSec + durSec
	outage := Fault{Kind: GroundOutage, StartSec: startSec, EndSec: end, Factor: 0.25}
	seu := Fault{Kind: SEUBurst, StartSec: startSec, EndSec: end, HazardPerSec: 0.05}
	derate := Fault{Kind: RadiatorDerate, StartSec: startSec, EndSec: end, Factor: 0.5}
	switch name {
	case CampaignNone:
		return nil, nil
	case CampaignGroundOutage:
		return []Fault{outage}, nil
	case CampaignSEUBurst:
		return []Fault{seu}, nil
	case CampaignRadiatorDerate:
		return []Fault{derate}, nil
	case CampaignCombined:
		return []Fault{outage, seu, derate}, nil
	}
	return nil, fmt.Errorf("qos: unknown campaign preset %q (have %v)", name, CampaignNames())
}
