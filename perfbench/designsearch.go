package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"

	"spacedc/internal/apps"
	"spacedc/internal/econ"
	"spacedc/internal/experiments"
	"spacedc/internal/gpusim"
	"spacedc/internal/isl"
	"spacedc/internal/netsim"
	"spacedc/internal/optimize"
	"spacedc/internal/orbit"
	"spacedc/internal/radiation"
	"spacedc/internal/resilience"
	"spacedc/internal/sched"
	"spacedc/internal/units"
)

// designSearchOps is the length of design-search's op list: 22 ops leave
// a percentile (p54.5) with ten ops beyond it.
const designSearchOps = 22

// designSearchPassSec is one pass's nominal seconds on the 2-vCPU machine
// the benchmark was sized on, so a 30 s run times each search once.
const designSearchPassSec = 40

// design-search: one op is one optimize.Search with the study
// configuration over the default space, serial (Workers 1), with a new
// seed per op. It is what an optimizer user waits for, and it drives
// netsim the queue-bound way: small per-plane graphs, heavy segment
// traffic, no faults.
type designState struct {
	cfg   optimize.Config
	space optimize.Space
}

func setupDesignSearch() (any, error) {
	st := &designState{cfg: experiments.OptimizeStudyConfig(), space: optimize.DefaultSpace()}
	st.cfg.Workers = 1
	// Warm-up op with the study's own seed, outside every op list; the
	// timed ops carry the output checks.
	if _, err := optimize.Search(context.Background(), st.cfg, st.space); err != nil {
		return nil, err
	}
	return st, nil
}

func (st *designState) opConfig(seed int64, i int) optimize.Config {
	c := st.cfg
	c.Seed = derive(seed, i)
	return c
}

// checkSearch is design-search's output check.
func checkSearch(out *optimize.Outcome, budget int) error {
	if out.Proposals != budget {
		return fmt.Errorf("proposals %d != budget %d", out.Proposals, budget)
	}
	if out.Evaluated+out.CacheHits != out.Proposals {
		return fmt.Errorf("evaluated %d + cache hits %d != proposals %d", out.Evaluated, out.CacheHits, out.Proposals)
	}
	obj := out.Best.Score.Objective
	if !out.Best.Score.Feasible || math.IsNaN(obj) || math.IsInf(obj, 0) || obj <= 0 {
		return fmt.Errorf("best candidate %s is infeasible or has objective %v", optimize.Key(out.Best.Design), obj)
	}
	return nil
}

func runDesignSearch(state any, seed int64, seconds float64) (*report, error) {
	st := state.(*designState)
	rep := &report{correct: true}
	f := newFloors(designSearchOps)
	var alloc, quality, passSecs []float64
	for pass := 0; pass < passes(seconds, designSearchPassSec, 1); pass++ {
		secs := 0.0
		for i := 0; i < designSearchOps; i++ {
			cfg := st.opConfig(seed, i)
			var out *optimize.Outcome
			var err error
			s := measure(true, pass == 0, func() { out, err = optimize.Search(context.Background(), cfg, st.space) })
			rep.attempted++
			f.add(i, s.ms)
			secs += s.ms / 1e3
			if pass == 0 {
				alloc = append(alloc, mb(s.allocB))
			}
			if err == nil {
				if pass == 0 {
					quality = append(quality, out.Best.Score.Objective)
				}
				err = checkSearch(out, cfg.Budget)
			}
			if err != nil {
				rep.failed++
				rep.note("search %d: %v", i, err)
			}
		}
		passSecs = append(passSecs, secs)
	}
	return rep, rep.endToEnd(f, all, designSearchOps, passSecs, alloc, mean(quality))
}

// evalReplay re-runs the layer calls optimize.Evaluator.Evaluate makes for
// one design — econ.Cost, netsim.Run on the per-plane spec, and
// resilience.Scenario.Evaluate — so each can be timed on its own. The
// replayed calls must reproduce the Score's NetworkMbps and ComputeRatio
// exactly; otherwise the trace is invalid.
type evalReplay struct {
	ev  *optimize.Evaluator
	cfg optimize.EvalConfig
	env map[float64]*resilience.EnvTrace
}

func newEvalReplay(cfg optimize.EvalConfig, space optimize.Space) (*evalReplay, error) {
	ev, err := optimize.NewEvaluator(cfg, space)
	if err != nil {
		return nil, err
	}
	r := &evalReplay{ev: ev, cfg: evalDefaults(cfg), env: map[float64]*resilience.EnvTrace{}}
	for _, alt := range space.AltitudesKm {
		el := orbit.CircularLEO(alt, r.cfg.InclinationRad, 0, 0, optimize.Epoch)
		tr, err := resilience.BuildEnvTrace(el, optimize.Epoch, r.cfg.ComputeDurationSec, r.cfg.EnvStepSec, radiation.DefaultSAA())
		if err != nil {
			return nil, err
		}
		r.env[alt] = tr
	}
	return r, nil
}

// evalDefaults fills zero fields with optimize.EvalConfig's documented
// defaults.
func evalDefaults(c optimize.EvalConfig) optimize.EvalConfig {
	if c.Model == (econ.CostModel{}) {
		c.Model = econ.DefaultCostModel()
	}
	if c.Tech.Capacity == 0 {
		c.Tech = isl.Optical10G
	}
	if c.PerSat == 0 {
		c.PerSat = 1.5 * units.Gbps
	}
	for _, f := range []struct {
		v   *float64
		def float64
	}{
		{&c.NetStepSec, 0.2}, {&c.NetEpochSec, 10}, {&c.NetDurationSec, 20},
		{&c.ComputeDurationSec, 900}, {&c.EnvStepSec, 10}, {&c.InclinationRad, 51.6 * math.Pi / 180},
		{&c.HazardScale, 5}, {&c.FramePeriodSec, 1.5}, {&c.PixelsPerFrame, 3e7},
	} {
		if *f.v == 0 {
			*f.v = f.def
		}
	}
	return c
}

// netsimScenario is the per-plane run Evaluate prices the network with.
func (r *evalReplay) netsimScenario(d econ.Design) (netsim.Scenario, error) {
	if d.Shells > 1 {
		return netsim.Scenario{}, errors.New("multi-shell designs are not replayed")
	}
	spec, err := netsim.DesignTopology(d.Planes, d.SatsPerPlane, d.AltitudeKm, d.K, d.Split, d.GEOSinks, r.cfg.Tech)
	if err != nil {
		return netsim.Scenario{}, err
	}
	h := fnv.New64a()
	h.Write([]byte(optimize.Key(d)))
	return netsim.Scenario{
		Name:        optimize.Key(d),
		Topology:    spec,
		PerSat:      r.cfg.PerSat,
		Faults:      netsim.FaultConfig{LinkOutage: r.cfg.LinkOutage},
		StepSec:     r.cfg.NetStepSec,
		EpochSec:    r.cfg.NetEpochSec,
		DurationSec: r.cfg.NetDurationSec,
		Seed:        int64(h.Sum64() & 0x7fffffffffffffff),
	}, nil
}

// resilienceScenario is the SµDC compute run Evaluate prices survivability
// with, plus its recovery policy and offered frame rate.
func (r *evalReplay) resilienceScenario(d econ.Design, seed int64) (resilience.Scenario, resilience.Policy, float64, error) {
	sinks, sats := max(d.SuDCs(), 1), d.TotalSats()
	if !d.GEO {
		sinks, sats = d.Split, d.SatsPerPlane
	}
	fed := max((sats+sinks-1)/sinks, 1)
	proc, err := sched.NewDeviceProcessor(apps.FloodDetection, gpusim.RTX3090, d.DevicesPerSuDC)
	if err != nil {
		return resilience.Scenario{}, resilience.Policy{}, 0, err
	}
	pol := resilience.Policy{Name: d.Recovery}
	switch d.Recovery {
	case econ.RecoveryNone:
	case econ.RecoveryRetry:
		pol.Recovery = resilience.Retry{}
	case econ.RecoveryCheckpoint:
		pol.Recovery = resilience.Checkpoint{CheckpointSec: 1, RestartSec: 1}
	case econ.RecoveryDMR:
		pol.Recovery = resilience.Replicated{N: 2}
	case econ.RecoveryTMR:
		pol.Recovery = resilience.Replicated{N: 3}
	case econ.RecoverySAAPause:
		pol.Recovery, pol.PauseInSAA = resilience.Retry{}, true
	default:
		return resilience.Scenario{}, resilience.Policy{}, 0, fmt.Errorf("unknown recovery %q", d.Recovery)
	}
	hazard := resilience.DefaultHazard()
	hazard.BaseRatePerSec *= r.cfg.HazardScale
	sc := resilience.Scenario{
		Base: sched.Config{
			Satellites: fed, FramePeriodSec: r.cfg.FramePeriodSec, PixelsPerFrame: r.cfg.PixelsPerFrame,
			TargetBatch: 32, MaxBatch: 32, MaxWaitSec: 60, QueueLimit: 200,
			DurationSec: r.cfg.ComputeDurationSec, Seed: seed,
		},
		Proc:   proc,
		Env:    r.env[d.AltitudeKm],
		Hazard: hazard,
	}
	return sc, pol, float64(fed) / r.cfg.FramePeriodSec, nil
}

func traceDesignSearch(state any, seed int64, seconds float64, tr *tracer) (*report, error) {
	st := state.(*designState)
	rp, err := newEvalReplay(st.cfg.Eval, st.space)
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true}
	var untraced, evaluated, hitRatio, infeasRatio []float64
	var runs netsimRuns
	mismatches := 0
	replayFor(designSearchOps, seconds, func(i, pass int) {
		op := pass*designSearchOps + i
		cfg := st.opConfig(seed, i)
		plain := func() error {
			var err error
			untraced = append(untraced, measure(true, false, func() { _, err = optimize.Search(context.Background(), cfg, st.space) }).ms)
			return err
		}
		traced := func() error {
			var out *optimize.Outcome
			var err error
			runtime.GC()
			root := tr.timed("optimize.search", -1, op, func() { out, err = optimize.Search(context.Background(), cfg, st.space) })
			if err == nil {
				err = checkSearch(out, cfg.Budget)
			}
			if err != nil {
				return err
			}
			p := float64(out.Proposals)
			evaluated = append(evaluated, float64(out.Evaluated))
			hitRatio = append(hitRatio, float64(out.CacheHits)/p)
			infeasRatio = append(infeasRatio, float64(out.Infeasible)/p)
			for _, c := range out.Trace {
				if c.Cached {
					continue
				}
				if err := rp.replay(tr, root, op, c, &runs); err != nil {
					mismatches++
					rep.note("search %d candidate %s: %v", i, optimize.Key(c.Design), err)
				}
			}
			return nil
		}
		if err := plainAndTraced(op, plain, traced); err != nil {
			rep.failed++
			rep.note("search %d: %v", i, err)
		}
		rep.attempted++
	})
	if mismatches > 0 {
		rep.correct = false
		rep.note("trace invalid: %d replays did not reproduce their Score", mismatches)
	}
	return rep, rep.layers(map[string]float64{
		"optimize.search_ms":        median(tr.ms("optimize.search")),
		"optimize.evaluate_ms":      median(tr.ms("optimize.evaluate")),
		"optimize.self_ms":          median(tr.selfMS("optimize.search")),
		"optimize.evaluated":        mean(evaluated),
		"optimize.cache_hit_ratio":  mean(hitRatio),
		"optimize.infeasible_ratio": mean(infeasRatio),
		"resilience.evaluate_ms":    median(tr.ms("resilience.evaluate")),
		"econ.cost_us":              median(tr.ms("econ.cost")) * 1e3,
		"trace.overhead_ratio":      median(tr.ms("optimize.search")) / median(untraced),
		"trace.coverage":            tr.coverage(),
	}, runs.metrics(tr))
}

// replay times Evaluate on one candidate and then the three layer calls it
// makes, as children of the evaluate span. Every layer is timed even when
// an earlier one did not reproduce the Score; the mismatches are returned
// together.
func (r *evalReplay) replay(tr *tracer, root, op int, c optimize.Candidate, runs *netsimRuns) error {
	d := c.Design
	var score optimize.Score
	var err error
	var mismatches []error
	evID := tr.timed("optimize.evaluate", root, op, func() { score, err = r.ev.Evaluate(d) })
	if err != nil {
		return err
	}
	if score != c.Score {
		mismatches = append(mismatches, fmt.Errorf("re-evaluation scored %+v, search scored %+v", score, c.Score))
	}
	if !c.Score.Feasible {
		return errors.Join(mismatches...)
	}
	tr.timed("econ.cost", evID, op, func() { _, err = econ.Cost(r.cfg.Model, d) })
	if err != nil {
		return err
	}
	nsc, err := r.netsimScenario(d)
	if err != nil {
		return err
	}
	res, err := runs.run(tr, evID, op, nsc)
	if err != nil {
		return err
	}
	if mbps := float64(res.DeliveredRate) / 1e6 * float64(d.Planes); mbps != c.Score.NetworkMbps {
		mismatches = append(mismatches, fmt.Errorf("replayed NetworkMbps %v != %v", mbps, c.Score.NetworkMbps))
	}
	rsc, pol, offered, err := r.resilienceScenario(d, nsc.Seed)
	if err != nil {
		return err
	}
	var rr resilience.Report
	tr.timed("resilience.evaluate", evID, op, func() { rr, err = rsc.Evaluate(pol, sched.Stats{EnergyJ: 1}) })
	if err != nil {
		return err
	}
	ratio := rr.GoodputFPS / offered
	if ratio > 1 {
		ratio = 1
	}
	if ratio < 0 || math.IsNaN(ratio) {
		ratio = 0
	}
	if ratio != c.Score.ComputeRatio {
		mismatches = append(mismatches, fmt.Errorf("replayed ComputeRatio %v != %v", ratio, c.Score.ComputeRatio))
	}
	return errors.Join(mismatches...)
}
