package optimize

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"sync"

	"spacedc/internal/apps"
	"spacedc/internal/econ"
	"spacedc/internal/gpusim"
	"spacedc/internal/isl"
	"spacedc/internal/netsim"
	"spacedc/internal/orbit"
	"spacedc/internal/radiation"
	"spacedc/internal/resilience"
	"spacedc/internal/sched"
	"spacedc/internal/units"
)

// EvalConfig tunes the candidate evaluation pipeline: a short netsim run
// prices the network side, a short resilience run prices the compute
// side, and the econ model supplies the $/hour denominator. Zero fields
// take the defaults below — sized so one candidate evaluates in
// milliseconds while still discriminating along every search axis.
type EvalConfig struct {
	// Model prices candidates; the zero value means econ.DefaultCostModel.
	Model econ.CostModel
	// Tech is the ISL link technology. Zero capacity means isl.Optical10G.
	Tech isl.LinkTech
	// PerSat is each EO satellite's generation rate. Zero means 1.5 Gbps —
	// high enough that a bare ring saturates while K ≥ 4 fabrics do not,
	// so the ISL-budget axis has a real optimum.
	PerSat units.DataRate
	// LinkOutage feeds the netsim fault layer (default 0: capacity-limited
	// evaluation).
	LinkOutage float64
	// NetStepSec / NetEpochSec / NetDurationSec size the netsim run
	// (defaults 0.2 / 10 / 20); NetEpochSec is the interval between full
	// route recomputes.
	NetStepSec     float64
	NetEpochSec    float64
	NetDurationSec float64

	// ComputeDurationSec sizes the resilience run (default 900).
	ComputeDurationSec float64
	// EnvStepSec samples the orbit-propagated environment trace
	// (default 10).
	EnvStepSec float64
	// InclinationRad sets the evaluation orbit's inclination (default the
	// ISS-like 51.6° that grazes the SAA, so recovery policies matter).
	InclinationRad float64
	// HazardScale multiplies the default COTS upset rate so short runs
	// still discriminate recovery policies (default 5).
	HazardScale float64
	// FramePeriodSec / PixelsPerFrame describe the EO capture feed
	// (defaults 1.5 s / 3e7 — flood detection on RTX 3090-class devices).
	FramePeriodSec float64
	PixelsPerFrame float64
}

func (c EvalConfig) withDefaults() EvalConfig {
	if c.Model == (econ.CostModel{}) {
		c.Model = econ.DefaultCostModel()
	}
	if c.Tech.Capacity == 0 {
		c.Tech = isl.Optical10G
	}
	if c.PerSat == 0 {
		c.PerSat = 1.5 * units.Gbps
	}
	if c.NetStepSec == 0 {
		c.NetStepSec = 0.2
	}
	if c.NetEpochSec == 0 {
		c.NetEpochSec = 10
	}
	if c.NetDurationSec == 0 {
		c.NetDurationSec = 20
	}
	if c.ComputeDurationSec == 0 {
		c.ComputeDurationSec = 900
	}
	if c.EnvStepSec == 0 {
		c.EnvStepSec = 10
	}
	if c.InclinationRad == 0 {
		c.InclinationRad = 51.6 * math.Pi / 180
	}
	if c.HazardScale == 0 {
		c.HazardScale = 5
	}
	if c.FramePeriodSec == 0 {
		c.FramePeriodSec = 1.5
	}
	if c.PixelsPerFrame == 0 {
		c.PixelsPerFrame = 3e7
	}
	return c
}

// Score is one candidate's evaluation. Every field is finite — infeasible
// designs score zero with a reason instead of a NaN or ±Inf objective, so
// outcomes serialize cleanly and a degenerate candidate can never win.
type Score struct {
	// Feasible is false when the design failed structural validation
	// (netsim.DesignError or econ rejection) or offers more load than
	// netsim accepts; Reason says why.
	Feasible bool   `json:"feasible"`
	Reason   string `json:"reason,omitempty"`
	// NetworkMbps is the constellation-wide delivered network rate.
	NetworkMbps float64 `json:"network_mbps"`
	// ComputeRatio is the surviving fraction of offered frames under the
	// candidate's recovery policy (≤ 1).
	ComputeRatio float64 `json:"compute_ratio"`
	// GoodputMbps composes the two: delivered rate that also survived
	// compute.
	GoodputMbps float64 `json:"goodput_mbps"`
	// CostPerHour is the econ model's amortized denominator in dollars.
	CostPerHour float64 `json:"cost_per_hour"`
	// Objective is GoodputMbps / CostPerHour — goodput per dollar-hour.
	Objective float64 `json:"objective"`
}

// Evaluator scores candidate designs. It is safe for concurrent use, and
// evaluation is a pure function of the design, so results are independent
// of which worker evaluates a candidate. Its one mutable state is the
// network memo: Evaluate runs netsim once per distinct netKey and reuses
// the run's delivered rate, or its error, for every later design with the
// same key. The key holds everything the per-plane run reads from a
// design, so two designs share a run only when their runs would be equal.
type Evaluator struct {
	cfg EvalConfig
	// env caches one orbit-propagated environment trace per altitude in
	// the space, built up front so the parallel phase never writes.
	env map[float64]*resilience.EnvTrace
	// mu guards net, which maps a network key to its run. A run is filled
	// once, by whichever worker first asks for it; the others wait.
	mu  sync.Mutex
	net map[netKey]*netRun
}

// netKey is what a design's per-plane netsim run reads from it: specFor's
// inputs without the plane count, and the evaluation seed only when a
// link outage makes the fault clocks draw. The plane count only bounds
// the constellation against the node ceiling, which specFor checks before
// the memo is consulted, and multiplies the delivered rate; devices and
// recovery feed the compute side alone. InterShell is normalised as
// specFor reads it: ignored at one shell, and anything but nearest is
// aligned.
type netKey struct {
	shells, sats       int
	altKm              float64
	k, split, geoSinks int
	nearest            bool
	seed               int64
}

// netRun is one memoised network half: the per-plane delivered rate of a
// netsim run, or the error the run failed with.
type netRun struct {
	once sync.Once
	rate units.DataRate
	err  error
}

// NewEvaluator validates the configuration and precomputes the
// environment traces for every altitude in the space.
func NewEvaluator(cfg EvalConfig, space Space) (*Evaluator, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	if err := space.Validate(); err != nil {
		return nil, err
	}
	ev := &Evaluator{cfg: cfg, env: make(map[float64]*resilience.EnvTrace), net: make(map[netKey]*netRun)}
	alts := append([]float64(nil), space.AltitudesKm...)
	sort.Float64s(alts)
	for _, alt := range alts {
		if _, ok := ev.env[alt]; ok {
			continue
		}
		el := orbit.CircularLEO(alt, cfg.InclinationRad, 0, 0, Epoch)
		tr, err := resilience.BuildEnvTrace(el, Epoch, cfg.ComputeDurationSec, cfg.EnvStepSec, radiation.DefaultSAA())
		if err != nil {
			return nil, fmt.Errorf("optimize: environment trace at %g km: %w", alt, err)
		}
		ev.env[alt] = tr
	}
	return ev, nil
}

// Key canonicalizes a design for caching and seeding: two equal designs
// always share evaluation randomness, so scores are content-addressed.
// Multi-shell designs append a suffix; single-shell keys are unchanged, so
// pre-multi-shell caches and seeds still resolve.
func Key(d econ.Design) string {
	k := fmt.Sprintf("p%d.s%d.a%g.k%d.x%d.geo%d.dev%d.%s",
		d.Planes, d.SatsPerPlane, d.AltitudeKm, d.K, d.Split, d.GEOSinks, d.DevicesPerSuDC, d.Recovery)
	if d.Shells > 1 {
		inter := d.InterShell
		if inter == "" {
			inter = econ.InterShellAligned
		}
		k += fmt.Sprintf(".sh%d.%s", d.Shells, inter)
	}
	return k
}

// designKey is Key as a comparable value, built without formatting: two
// designs have equal designKeys exactly when their Keys are equal. The
// altitude is kept as its bits because %g tells 0 from -0. Search's score
// cache and round filter and paretoFront's dedupe compare designs by it;
// Key stays for what is printed, for seeding and for paretoFront's order.
type designKey struct {
	planes, sats       int
	altBits            uint64
	k, split, geoSinks int
	devices            int
	recovery           string
	shells             int
	inter              string
}

// designKeyOf returns d's designKey: Key's fields, with the shell count
// and rule only above one shell and an empty rule read as aligned.
func designKeyOf(d econ.Design) designKey {
	k := designKey{
		planes: d.Planes, sats: d.SatsPerPlane, altBits: math.Float64bits(d.AltitudeKm),
		k: d.K, split: d.Split, geoSinks: d.GEOSinks, devices: d.DevicesPerSuDC, recovery: d.Recovery,
	}
	if d.Shells > 1 {
		k.shells, k.inter = d.Shells, d.InterShell
		if k.inter == "" {
			k.inter = econ.InterShellAligned
		}
	}
	return k
}

// seedFor derives the evaluation seed from the design content.
func seedFor(d econ.Design) int64 {
	h := fnv.New64a()
	h.Write([]byte(Key(d)))
	return int64(h.Sum64() & 0x7fffffffffffffff)
}

// specFor builds the per-plane netsim topology for a design: the validated
// single-shell construction for classic designs, or a shell stack — the
// same cluster at every shell, altitudes stepped by econ.ShellSpacingKm to
// mirror the cost model's stacking — wired by the design's inter-shell
// rule with the default one-pair-per-satellite cross-link budget.
func (ev *Evaluator) specFor(d econ.Design) (netsim.TopologySpec, error) {
	if d.Shells <= 1 {
		return netsim.DesignTopology(d.Planes, d.SatsPerPlane, d.AltitudeKm, d.K, d.Split, d.GEOSinks, ev.cfg.Tech)
	}
	shells := make([]netsim.ShellSpec, d.Shells)
	for i := range shells {
		shells[i] = netsim.ShellSpec{
			Sats:    d.SatsPerPlane,
			Cluster: isl.Topology{K: d.K, Split: d.Split},
			AltKm:   d.AltitudeKm + float64(i)*econ.ShellSpacingKm,
		}
	}
	kind := netsim.InterShellAligned
	if d.InterShell == econ.InterShellNearest {
		kind = netsim.InterShellNearest
	}
	return netsim.DesignShells(shells, kind, 0, ev.cfg.Tech)
}

// netKeyFor returns d's network key under the evaluator's configuration.
func (ev *Evaluator) netKeyFor(d econ.Design) netKey {
	k := netKey{shells: 1, sats: d.SatsPerPlane, altKm: d.AltitudeKm, k: d.K, split: d.Split, geoSinks: d.GEOSinks}
	if d.Shells > 1 {
		k.shells, k.nearest = d.Shells, d.InterShell == econ.InterShellNearest
	}
	if ev.cfg.LinkOutage > 0 {
		k.seed = seedFor(d)
	}
	return k
}

// network returns the delivered rate of the netsim run on spec, d's
// per-plane fabric, under seed, running it only when no earlier design of
// this evaluator had d's key. netsim reads the seed only when a fault
// clock draws, which here means a link outage, and then the key holds it.
func (ev *Evaluator) network(d econ.Design, spec netsim.TopologySpec, seed int64) (units.DataRate, error) {
	key := ev.netKeyFor(d)
	ev.mu.Lock()
	run := ev.net[key]
	if run == nil {
		run = new(netRun)
		ev.net[key] = run
	}
	ev.mu.Unlock()
	run.once.Do(func() {
		res, err := netsim.Run(netsim.Scenario{
			Topology:    spec,
			PerSat:      ev.cfg.PerSat,
			Faults:      netsim.FaultConfig{LinkOutage: ev.cfg.LinkOutage},
			StepSec:     ev.cfg.NetStepSec,
			EpochSec:    ev.cfg.NetEpochSec,
			DurationSec: ev.cfg.NetDurationSec,
			Seed:        seed,
		})
		run.rate, run.err = res.DeliveredRate, err
	})
	return run.rate, run.err
}

// structuralOK reports whether a design passes both validation layers
// without running any simulation, for cheap proposal filtering.
func (ev *Evaluator) structuralOK(d econ.Design) bool {
	if d.Validate() != nil {
		return false
	}
	_, err := ev.specFor(d)
	return err == nil
}

// Evaluate scores one design: netsim prices the network, resilience the
// compute survivability, econ the denominator. Structural rejections come
// back as an infeasible Score (nil error); a non-nil error means the
// simulators themselves failed.
func (ev *Evaluator) Evaluate(d econ.Design) (Score, error) {
	breakdown, err := econ.Cost(ev.cfg.Model, d)
	if err != nil {
		return Score{Reason: err.Error()}, nil
	}
	spec, err := ev.specFor(d)
	if err != nil {
		var de *netsim.DesignError
		if errors.As(err, &de) {
			return Score{Reason: de.Error()}, nil
		}
		return Score{}, err
	}
	seed := seedFor(d)

	// Network side: one plane's fabric under the candidate's ISL budget,
	// scaled by the plane count (planes are identical by construction).
	rate, err := ev.network(d, spec, seed)
	if err != nil {
		// A load over netsim's caps is the design's, like a structural
		// rejection: score it infeasible rather than fail the search.
		var de *netsim.DesignError
		if errors.As(err, &de) {
			return Score{Reason: de.Error()}, nil
		}
		return Score{}, fmt.Errorf("optimize: netsim for %s: %w", Key(d), err)
	}
	networkMbps := float64(rate) / 1e6 * float64(d.Planes)

	// Compute side: one SµDC's device gang fed by its share of the
	// satellites, under the candidate's recovery policy in the SAA-grazing
	// hazard environment.
	satsFed := feedPerSuDC(d)
	proc, err := sched.NewDeviceProcessor(apps.FloodDetection, gpusim.RTX3090, d.DevicesPerSuDC)
	if err != nil {
		return Score{}, err
	}
	pol, err := resilience.PolicyNamed(d.Recovery)
	if err != nil {
		return Score{}, err
	}
	hazard := resilience.DefaultHazard()
	hazard.BaseRatePerSec *= ev.cfg.HazardScale
	sc := resilience.Scenario{
		Base: sched.Config{
			Satellites:     satsFed,
			FramePeriodSec: ev.cfg.FramePeriodSec,
			PixelsPerFrame: ev.cfg.PixelsPerFrame,
			TargetBatch:    32,
			MaxBatch:       32,
			MaxWaitSec:     60,
			QueueLimit:     200,
			DurationSec:    ev.cfg.ComputeDurationSec,
			Seed:           seed,
		},
		Proc:   proc,
		Env:    ev.env[d.AltitudeKm],
		Hazard: hazard,
	}
	// The dummy baseline skips the fault-free re-simulation Evaluate would
	// otherwise run per candidate; it only feeds EnergyOverhead, which the
	// objective never reads.
	rep, err := sc.Evaluate(pol, sched.Stats{EnergyJ: 1})
	if err != nil {
		return Score{}, fmt.Errorf("optimize: resilience for %s: %w", Key(d), err)
	}
	offeredFPS := float64(satsFed) / ev.cfg.FramePeriodSec
	ratio := rep.GoodputFPS / offeredFPS
	if ratio > 1 {
		ratio = 1
	}
	if ratio < 0 || math.IsNaN(ratio) {
		ratio = 0
	}

	s := Score{
		Feasible:     true,
		NetworkMbps:  networkMbps,
		ComputeRatio: ratio,
		GoodputMbps:  networkMbps * ratio,
		CostPerHour:  float64(breakdown.PerHour),
	}
	s.Objective = s.GoodputMbps / s.CostPerHour
	for _, v := range []float64{s.NetworkMbps, s.ComputeRatio, s.GoodputMbps, s.CostPerHour, s.Objective} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return Score{}, fmt.Errorf("optimize: non-finite score %+v for %s", s, Key(d))
		}
	}
	return s, nil
}

// feedPerSuDC returns the EO satellites one SµDC ingests.
func feedPerSuDC(d econ.Design) int {
	sinks := d.SuDCs()
	if sinks < 1 {
		sinks = 1
	}
	var sats int
	if d.GEO {
		sats = d.TotalSats()
	} else {
		sats = d.SatsPerPlane
		sinks = d.Split
	}
	fed := (sats + sinks - 1) / sinks
	if fed < 1 {
		fed = 1
	}
	return fed
}
