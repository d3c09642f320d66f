// Package serve is the scenario-evaluation service behind cmd/sudcsimd:
// an HTTP daemon (stdlib net/http only) that exposes the experiment
// registry and the netsim/sched simulators as an API with request
// admission, a content-addressed result cache, and live metrics
// streaming. It is the long-running frontend over the same drivers the
// sudcsim batch CLI runs, so a daemon evaluation is byte-identical to the
// batch output for the same scenario.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"spacedc/internal/apps"
	"spacedc/internal/experiments"
	"spacedc/internal/gpusim"
	"spacedc/internal/isl"
	"spacedc/internal/netsim"
	"spacedc/internal/optimize"
	"spacedc/internal/qos"
	"spacedc/internal/sched"
	"spacedc/internal/units"
)

// EvalSpec is the body of POST /v1/eval: exactly one of the scenario
// kinds must be set. The spec is the cache identity — two requests whose
// normalized specs are equal share one evaluation and one cached result.
type EvalSpec struct {
	// Experiment runs one registered experiment by ID (or "all" for the
	// registry-wide sweep).
	Experiment string `json:"experiment,omitempty"`
	// Netsim runs a parameterized flow-level network scenario.
	Netsim *NetsimSpec `json:"netsim,omitempty"`
	// Sched runs a parameterized SµDC pipeline scenario.
	Sched *SchedSpec `json:"sched,omitempty"`
	// Workload runs an end-to-end QoS scenario: tasking surge, priority
	// admission, and fault campaign on the calibrated pipeline.
	Workload *WorkloadSpec `json:"workload,omitempty"`
	// Optimize runs a constellation design-space search maximizing goodput
	// per dollar-hour.
	Optimize *OptimizeSpec `json:"optimize,omitempty"`
}

// NetsimSpec parameterizes one netsim.Scenario over JSON-friendly scalar
// fields. Zero fields inherit the simulator defaults (see
// netsim.Scenario); the topology is the paper's in-plane cluster formation
// with Optical10G terminals, or a GEO star when GEOSinks > 0.
type NetsimSpec struct {
	Name        string  `json:"name,omitempty"`
	Sats        int     `json:"sats"`
	K           int     `json:"k,omitempty"`     // k-list fanout; 0 → 2 (ring)
	Split       int     `json:"split,omitempty"` // SµDC splitting; 0 → 1
	GEOSinks    int     `json:"geo_sinks,omitempty"`
	PerSatMbps  float64 `json:"per_sat_mbps"`
	SegmentBits float64 `json:"segment_bits,omitempty"`
	StepSec     float64 `json:"step_sec,omitempty"`
	EpochSec    float64 `json:"epoch_sec,omitempty"` // interval between full route recomputes
	DurationSec float64 `json:"duration_sec,omitempty"`
	WarmupSec   float64 `json:"warmup_sec,omitempty"`
	Seed        int64   `json:"seed,omitempty"`

	LinkOutage    float64 `json:"link_outage,omitempty"`
	LinkMTTRSec   float64 `json:"link_mttr_sec,omitempty"`
	SatMTBFSec    float64 `json:"sat_mtbf_sec,omitempty"`
	SatMTTRSec    float64 `json:"sat_mttr_sec,omitempty"`
	EclipseOutage bool    `json:"eclipse_outage,omitempty"`

	// Shells, when non-empty, replaces Sats/K/Split/GEOSinks with a
	// multi-shell stack wired by InterShell cross-links. Every field is
	// omitempty so single-shell specs hash exactly as they did before the
	// multi-shell axis existed.
	Shells []NetsimShell `json:"shells,omitempty"`
	// InterShell names the cross-link rule between adjacent shells:
	// "aligned" (default) or "nearest".
	InterShell string `json:"inter_shell,omitempty"`
	// CrossLinks caps cross-linked satellite pairs per adjacent shell
	// pair; 0 means one pair per satellite of the smaller shell.
	CrossLinks int `json:"cross_links,omitempty"`
}

// NetsimShell is one shell of a multi-shell NetsimSpec.
type NetsimShell struct {
	Sats  int     `json:"sats"`
	K     int     `json:"k,omitempty"`     // 0 → 2 (ring)
	Split int     `json:"split,omitempty"` // 0 → 1
	AltKm float64 `json:"alt_km,omitempty"`
}

// SchedSpec parameterizes one sched.Simulate run on a device-model
// processor. App is an apps.ID ("FD", "UED", …; default FD); Device is a
// catalog name ("rtx3090", "jetson-xavier", "a100", "h100", "cloud-ai100";
// default rtx3090).
type SchedSpec struct {
	App            string  `json:"app,omitempty"`
	Device         string  `json:"device,omitempty"`
	Replicas       int     `json:"replicas,omitempty"`
	Satellites     int     `json:"satellites"`
	FramePeriodSec float64 `json:"frame_period_sec,omitempty"`
	PixelsPerFrame float64 `json:"pixels_per_frame,omitempty"`
	QueueLimit     int     `json:"queue_limit,omitempty"`
	TargetBatch    int     `json:"target_batch,omitempty"`
	MaxBatch       int     `json:"max_batch,omitempty"`
	MaxWaitSec     float64 `json:"max_wait_sec,omitempty"`
	DurationSec    float64 `json:"duration_sec,omitempty"`
	Seed           int64   `json:"seed,omitempty"`
}

// WorkloadSpec parameterizes one qos.Run on the shared calibrated
// pipeline (see experiments.WorkloadScenario): Policy is a qos policy
// preset ("open", "priority", "priority-retry"; default priority-retry),
// Campaign a qos fault-campaign preset ("none", "ground-outage",
// "seu-burst", "radiator-derate", "combined"; default combined), and Load
// the offered-demand multiplier (1.0 peaks near 1.6× the calibrated
// admission capacity).
type WorkloadSpec struct {
	Policy      string  `json:"policy,omitempty"`
	Campaign    string  `json:"campaign,omitempty"`
	Load        float64 `json:"load"`
	DurationSec float64 `json:"duration_sec,omitempty"`
	Seed        int64   `json:"seed,omitempty"`
}

// OptimizeSpec parameterizes one optimize.Search over the daemon's study
// evaluation pipeline (see experiments.OptimizeStudyEval). Zero fields
// inherit the optimizer defaults; Space overrides the default 2880-design
// study space. Budget is capped so one request cannot buy unbounded
// compute from an admission slot.
type OptimizeSpec struct {
	Seed          int64   `json:"seed,omitempty"`
	Budget        int     `json:"budget,omitempty"`
	Restarts      int     `json:"restarts,omitempty"`
	StalePatience int     `json:"stale_patience,omitempty"`
	Anneal        bool    `json:"anneal,omitempty"`
	InitTemp      float64 `json:"init_temp,omitempty"`
	// Space, when set, replaces optimize.DefaultSpace as the search space.
	Space *optimize.Space `json:"space,omitempty"`
}

// maxOptimizeBudget bounds the per-request proposal budget.
const maxOptimizeBudget = 512

// config converts the optimize spec into a search configuration plus
// space. The pool fan-out comes from the daemon (the sudcsimd -workers
// knob); results are bit-identical at any value.
func (os *OptimizeSpec) config(workers int) (optimize.Config, optimize.Space) {
	cfg := optimize.Config{
		Seed:          os.Seed,
		Budget:        os.Budget,
		Restarts:      os.Restarts,
		StalePatience: os.StalePatience,
		Anneal:        os.Anneal,
		InitTemp:      os.InitTemp,
		Workers:       workers,
		Eval:          experiments.OptimizeStudyEval(),
	}
	space := optimize.DefaultSpace()
	if os.Space != nil {
		space = *os.Space
	}
	return cfg, space
}

// scenario converts the workload spec into a qos scenario.
func (ws *WorkloadSpec) scenario() (qos.Scenario, error) {
	policy := ws.Policy
	if policy == "" {
		policy = qos.PolicyPriorityRetry
	}
	campaign := ws.Campaign
	if campaign == "" {
		campaign = qos.CampaignCombined
	}
	return experiments.WorkloadScenario(policy, campaign, ws.Load, ws.DurationSec, ws.Seed)
}

// devices maps API device names onto the gpusim catalog.
var devices = map[string]gpusim.Device{
	"jetson-xavier": gpusim.JetsonXavier,
	"rtx3090":       gpusim.RTX3090,
	"a100":          gpusim.A100,
	"h100":          gpusim.H100,
	"cloud-ai100":   gpusim.CloudAI100,
}

// Validate checks the spec names exactly one scenario kind and that the
// named scenario is well-formed enough to hash and dispatch. Deep
// parameter validation stays with the simulators, whose errors surface as
// a 422 from the eval handler.
func (s *EvalSpec) Validate() error {
	n := 0
	if s.Experiment != "" {
		n++
	}
	if s.Netsim != nil {
		n++
	}
	if s.Sched != nil {
		n++
	}
	if s.Workload != nil {
		n++
	}
	if s.Optimize != nil {
		n++
	}
	if n != 1 {
		return fmt.Errorf("spec must set exactly one of experiment, netsim, sched, workload, optimize (got %d)", n)
	}
	if s.Experiment != "" && s.Experiment != experiments.All {
		ids := experiments.IDs()
		found := false
		for _, id := range ids {
			if id == s.Experiment {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown experiment %q (have %v and %q)", s.Experiment, ids, experiments.All)
		}
	}
	if ns := s.Netsim; ns != nil {
		if len(ns.Shells) > 0 {
			if ns.Sats != 0 || ns.GEOSinks != 0 {
				return fmt.Errorf("netsim: shells and sats/geo_sinks are mutually exclusive")
			}
			for i, sh := range ns.Shells {
				if sh.Sats <= 0 {
					return fmt.Errorf("netsim: shells[%d]: sats must be positive, got %d", i, sh.Sats)
				}
			}
			switch ns.InterShell {
			case "", "aligned", "nearest":
			default:
				return fmt.Errorf("netsim: unknown inter_shell rule %q (have aligned, nearest)", ns.InterShell)
			}
			if ns.CrossLinks < 0 {
				return fmt.Errorf("netsim: cross_links must be non-negative, got %d", ns.CrossLinks)
			}
		} else if ns.Sats <= 0 {
			return fmt.Errorf("netsim: sats must be positive, got %d", ns.Sats)
		}
		if ns.PerSatMbps <= 0 {
			return fmt.Errorf("netsim: per_sat_mbps must be positive, got %g", ns.PerSatMbps)
		}
	}
	if ss := s.Sched; ss != nil {
		if ss.Satellites <= 0 {
			return fmt.Errorf("sched: satellites must be positive, got %d", ss.Satellites)
		}
		if ss.App != "" {
			if _, err := appByID(ss.App); err != nil {
				return err
			}
		}
		if ss.Device != "" {
			if _, ok := devices[ss.Device]; !ok {
				names := make([]string, 0, len(devices))
				for n := range devices {
					names = append(names, n)
				}
				return fmt.Errorf("sched: unknown device %q (have %v)", ss.Device, names)
			}
		}
	}
	if ws := s.Workload; ws != nil {
		if ws.Load <= 0 {
			return fmt.Errorf("workload: load must be positive, got %g", ws.Load)
		}
		if ws.Policy != "" && !nameIn(ws.Policy, qos.PolicyNames()) {
			return fmt.Errorf("workload: unknown policy %q (have %v)", ws.Policy, qos.PolicyNames())
		}
		if ws.Campaign != "" && !nameIn(ws.Campaign, qos.CampaignNames()) {
			return fmt.Errorf("workload: unknown campaign %q (have %v)", ws.Campaign, qos.CampaignNames())
		}
	}
	if op := s.Optimize; op != nil {
		if op.Budget < 0 || op.Budget > maxOptimizeBudget {
			return fmt.Errorf("optimize: budget %d outside [0, %d]", op.Budget, maxOptimizeBudget)
		}
		if op.Restarts < 0 || op.Restarts > maxOptimizeBudget {
			return fmt.Errorf("optimize: restarts %d outside [0, %d]", op.Restarts, maxOptimizeBudget)
		}
		if op.StalePatience < 0 || op.InitTemp < 0 {
			return fmt.Errorf("optimize: stale_patience and init_temp must be non-negative")
		}
		if op.Space != nil {
			if err := op.Space.Validate(); err != nil {
				return err
			}
		}
	}
	return nil
}

// nameIn reports whether name appears in the preset list.
func nameIn(name string, names []string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// appByID resolves an apps.ID string against the Table 5 catalog.
func appByID(id string) (apps.ID, error) {
	for _, a := range apps.All() {
		if string(a.ID) == id {
			return a.ID, nil
		}
	}
	return "", fmt.Errorf("sched: unknown app %q", id)
}

// Key returns the spec's content address: "sha256:<hex>" over the
// canonical JSON encoding. Canonicalization is a typed round-trip — the
// request body is decoded into the spec struct (rejecting unknown fields)
// and re-marshaled with the struct's fixed field order and omitempty
// semantics — so JSON field-order and map-iteration-order permutations of
// the same scenario, as well as absent-vs-zero optional fields, all hash
// to the same key.
func (s *EvalSpec) Key() (string, error) {
	canon, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return "sha256:" + hex.EncodeToString(sum[:]), nil
}

// scenario converts the netsim spec into a simulator scenario.
func (ns *NetsimSpec) scenario() netsim.Scenario {
	k := ns.K
	if k == 0 {
		k = 2
	}
	split := ns.Split
	if split == 0 {
		split = 1
	}
	topo := netsim.TopologySpec{
		Kind:    netsim.ClusterTopology,
		Sats:    ns.Sats,
		Cluster: isl.Topology{K: k, Split: split},
		Tech:    isl.Optical10G,
	}
	if ns.GEOSinks > 0 {
		topo = netsim.TopologySpec{
			Kind:     netsim.GEOStarTopology,
			Sats:     ns.Sats,
			Tech:     isl.Optical10G,
			GEOSinks: ns.GEOSinks,
		}
	}
	if len(ns.Shells) > 0 {
		topo = netsim.TopologySpec{Kind: netsim.ClusterTopology, Tech: isl.Optical10G}
		kind := netsim.InterShellAligned
		if ns.InterShell == "nearest" {
			kind = netsim.InterShellNearest
		}
		for i, sh := range ns.Shells {
			shK, shSplit := sh.K, sh.Split
			if shK == 0 {
				shK = 2
			}
			if shSplit == 0 {
				shSplit = 1
			}
			alt := sh.AltKm
			if alt == 0 {
				alt = 550 + 250*float64(i)
			}
			topo.Shells = append(topo.Shells, netsim.ShellSpec{
				Sats:    sh.Sats,
				Cluster: isl.Topology{K: shK, Split: shSplit},
				AltKm:   alt,
			})
			if i > 0 {
				topo.InterShell = append(topo.InterShell, netsim.InterShellRule{
					Kind: kind, CrossLinks: ns.CrossLinks,
				})
			}
		}
	}
	name := ns.Name
	if name == "" {
		name = "api-scenario"
	}
	return netsim.Scenario{
		Name:        name,
		Topology:    topo,
		PerSat:      units.DataRate(ns.PerSatMbps) * units.Mbps,
		SegmentBits: ns.SegmentBits,
		StepSec:     ns.StepSec,
		EpochSec:    ns.EpochSec,
		DurationSec: ns.DurationSec,
		WarmupSec:   ns.WarmupSec,
		Seed:        ns.Seed,
		Faults: netsim.FaultConfig{
			LinkOutage:    ns.LinkOutage,
			LinkMTTRSec:   ns.LinkMTTRSec,
			SatMTBFSec:    ns.SatMTBFSec,
			SatMTTRSec:    ns.SatMTTRSec,
			EclipseOutage: ns.EclipseOutage,
		},
	}
}

// config converts the sched spec into a simulator config plus processor.
func (ss *SchedSpec) config() (sched.Config, sched.Processor, error) {
	appID := apps.FloodDetection
	if ss.App != "" {
		id, err := appByID(ss.App)
		if err != nil {
			return sched.Config{}, nil, err
		}
		appID = id
	}
	dev := gpusim.RTX3090
	if ss.Device != "" {
		dev = devices[ss.Device]
	}
	proc, err := sched.NewDeviceProcessor(appID, dev, ss.Replicas)
	if err != nil {
		return sched.Config{}, nil, err
	}
	cfg := sched.Config{
		Satellites:     ss.Satellites,
		FramePeriodSec: ss.FramePeriodSec,
		PixelsPerFrame: ss.PixelsPerFrame,
		QueueLimit:     ss.QueueLimit,
		TargetBatch:    ss.TargetBatch,
		MaxBatch:       ss.MaxBatch,
		MaxWaitSec:     ss.MaxWaitSec,
		DurationSec:    ss.DurationSec,
		Seed:           ss.Seed,
	}
	if cfg.FramePeriodSec == 0 {
		cfg.FramePeriodSec = 1.5
	}
	if cfg.PixelsPerFrame == 0 {
		cfg.PixelsPerFrame = 1e6
	}
	if cfg.TargetBatch == 0 {
		cfg.TargetBatch = proc.OptimalTargetBatch()
	}
	// Without a wait bound a small constellation may never fill a large
	// optimal batch; bound it like the ext-sched sweeps do.
	if cfg.MaxWaitSec == 0 {
		cfg.MaxWaitSec = 120
	}
	if cfg.QueueLimit == 0 {
		cfg.QueueLimit = 1000
	}
	if cfg.DurationSec == 0 {
		cfg.DurationSec = 600
	}
	return cfg, proc, nil
}
