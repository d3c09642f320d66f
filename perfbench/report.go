package main

import (
	"errors"
	"fmt"
	"time"

	"spacedc/internal/netsim"
	"spacedc/internal/obs"
)

// endToEnd adds the end-to-end metrics every workload reports.
// op_p50_ms is the median floor of the workload's most common op (typical)
// and op_tail_ms the tail of every op's floor. ops_per_s is the median
// over passes of the ops completed per second of the pass: perPass ops over
// each of passSecs. alloc holds the heap MB of each op of the first pass.
func (r *report) endToEnd(f floors, typical func(i int) bool, perPass int, passSecs, alloc []float64, quality float64) error {
	ops := f.of(all)
	if len(ops) == 0 || len(alloc) == 0 || len(passSecs) == 0 {
		return errors.New("no op completed")
	}
	r.add("op_p50_ms", "ms", median(f.of(typical)))
	v, pct, ok := tail(ops)
	if !ok {
		// Failed ops can leave too few for the tail; report the slowest.
		v, pct = sorted(ops)[len(ops)-1], 100
		r.note("only %d ops completed: op_tail_ms is the slowest", len(ops))
	}
	r.add("op_tail_ms", "ms", v)
	rates := make([]float64, len(passSecs))
	for p, s := range passSecs {
		rates[p] = float64(perPass) / s
	}
	r.add("ops_per_s", "1/s", median(rates))
	r.add("alloc_mb_per_op", "MB", mean(alloc))
	r.add("quality", "score", quality)
	r.note("%d ops: op_p50_ms over %d of them; op_tail_ms is p%.4g; ops_per_s is the median of %d passes",
		len(ops), len(f.of(typical)), pct, len(passSecs))
	return nil
}

func mb(b uint64) float64 { return float64(b) / (1 << 20) }

// perLayer is every per-layer metric with its unit, in print order. Every
// traced run reports all of them; a layer the workload never calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"optimize.search_ms", "ms"},
	{"optimize.evaluate_ms", "ms"},
	{"optimize.self_ms", "ms"},
	{"optimize.evaluated", "count"},
	{"optimize.cache_hit_ratio", "ratio"},
	{"optimize.infeasible_ratio", "ratio"},
	{"resilience.evaluate_ms", "ms"},
	{"econ.cost_us", "us"},
	{"netsim.run_ms", "ms"},
	{"netsim.build_ms", "ms"},
	{"netsim.step_ms", "ms"},
	{"netsim.delivered_segs", "count"},
	{"netsim.route_repairs", "count"},
	{"netsim.fault_events", "count"},
	{"netsim.no_route_ratio", "ratio"},
	{"obs.observe_ns", "ns"},
	{"obs.observe_share", "ratio"},
	{"serve.cold_ms", "ms"},
	{"serve.decode_hash_us", "us"},
	{"serve.eval_ms", "ms"},
	{"serve.overhead_ms", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.cold_netsim_ms", "ms"},
	{"serve.cold_sched_ms", "ms"},
	{"serve.cold_workload_ms", "ms"},
	{"serve.response_kb", "KB"},
	{"qos.run_ms", "ms"},
	{"workload.generate_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.coverage", "ratio"},
}

// layers adds every per-layer metric, taking values from the maps.
func (r *report) layers(vals ...map[string]float64) error {
	got := map[string]float64{}
	for _, m := range vals {
		for k, v := range m {
			got[k] = v
		}
	}
	for _, l := range perLayer {
		r.add(l.name, l.unit, got[l.name])
		delete(got, l.name)
	}
	for k := range got {
		return fmt.Errorf("per-layer metric %s is not in the list", k)
	}
	return nil
}

// netsimRuns gathers the netsim runs of a traced run for the netsim and
// obs layer metrics.
type netsimRuns struct {
	delivered, repairs, faults []float64
	noRoute, offered           float64
	// latencies holds each run's mean segment latency, the values the
	// obs.Observe probe replays.
	latencies []float64
}

// run times netsim.Run on sc and then netsim.BuildGraph of its topology,
// recorded as the run span's child, so the run's self time is its
// stepping time.
func (n *netsimRuns) run(tr *tracer, parent, op int, sc netsim.Scenario) (netsim.Result, error) {
	var res netsim.Result
	var err error
	id := tr.timed("netsim.run", parent, op, func() { res, err = netsim.Run(sc) })
	if err != nil {
		return res, err
	}
	tr.timed("netsim.build", id, op, func() { _, err = netsim.BuildGraph(sc.Topology) })
	if err != nil {
		return res, err
	}
	n.delivered = append(n.delivered, float64(res.DeliveredSegs))
	n.repairs = append(n.repairs, float64(res.RouteRepairs))
	n.faults = append(n.faults, float64(res.FaultEvents))
	n.noRoute += float64(res.NoRouteDrops)
	n.offered += float64(res.OfferedSegs)
	if res.DeliveredSegs > 0 {
		n.latencies = append(n.latencies, res.LatencySec.Mean)
	}
	return res, nil
}

func (n *netsimRuns) metrics(tr *tracer) map[string]float64 {
	runMS := tr.ms("netsim.run")
	observe := observeNS(n.latencies)
	return map[string]float64{
		"netsim.run_ms":         median(runMS),
		"netsim.build_ms":       median(tr.ms("netsim.build")),
		"netsim.step_ms":        median(tr.selfMS("netsim.run")),
		"netsim.delivered_segs": mean(n.delivered),
		"netsim.route_repairs":  mean(n.repairs),
		"netsim.fault_events":   mean(n.faults),
		"netsim.no_route_ratio": n.noRoute / n.offered,
		"obs.observe_ns":        observe,
		// netsim observes every delivered segment's latency once.
		"obs.observe_share": observe * sum(n.delivered) / (sum(runMS) * 1e6),
	}
}

// observeNS times one obs.Histogram.Observe on the obs.LatencyBuckets
// layout netsim records segment latency in, replaying the given latencies;
// the median of several rounds is returned.
func observeNS(latencies []float64) float64 {
	if len(latencies) == 0 {
		latencies = []float64{0}
	}
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = latencies[i%len(latencies)]
	}
	h := obs.NewHistogram(obs.LatencyBuckets)
	const n = 1 << 20
	var rounds []float64
	for r := 0; r < 7; r++ {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			h.Observe(vals[i&1023])
		}
		rounds = append(rounds, float64(time.Since(t0).Nanoseconds())/n)
	}
	return median(rounds)
}
