package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"spacedc/internal/experiments"
	"spacedc/internal/isl"
	"spacedc/internal/netsim"
	"spacedc/internal/obs"
	"spacedc/internal/qos"
	"spacedc/internal/serve"
	"spacedc/internal/units"
	"spacedc/internal/workload"
)

// daemon-mix: one op is one POST /v1/eval through
// serve.New(serve.Config{Workers: 1}).Handler(), called in-process. Each
// pass starts a fresh server and posts the seed's fixed list of
// daemonRequests requests, each naming one spec of a catalogue of netsim,
// sched and workload specs. A request for a spec the daemon still holds is
// a cache hit: serve's own decode, hash, cache and encode cost. Any other
// is a cold eval, which carries qos, workload, sched and small-graph
// netsim.
//
// No record says how the daemon is used: there are no production traces,
// and neither the repository's documents nor its workload model say which
// specs users send or how often they repeat one. So the traffic follows a
// cited popularity law, and the rest is sized by what it exercises:
//   - Which spec a request names is drawn from a Zipf-like law,
//     P(rank r) ∝ r^-daemonZipfAlpha: the form Breslau et al. measured on
//     web-cache request traces, with exponents from 0.64 to 0.83 ("Web
//     Caching and Zipf-like Distributions: Evidence and Implications",
//     INFOCOM 1999). The hit/cold mix is what the daemon's cache makes of
//     that stream, not a chosen number.
//   - The catalogue holds twice the daemon's default 256 cache entries, so
//     the working set goes past the cache: specs are evicted and requested
//     again, and a re-miss must reproduce its first response's bytes.
//   - The catalogue is equal thirds netsim, sched and workload, interleaved
//     over the popularity ranks, so each kind gets about the same number of
//     cold evals for its per-layer median. Each kind's sizes are spread
//     evenly over its range at every popularity prefix.
//   - The catalogue is the same for every seed; the seed draws the
//     traffic. A netsim spec's cost moved by up to 45% with its simulation
//     seed alone, so a seeded catalogue swung the slowest requests, and
//     with them op_tail_ms, from seed to seed.
//
// daemon-mix forces a GC once per pass, not before every request: right
// after a collection the allocator's caches are cold, and a forced GC
// before a 10 µs hit made it take 45–60 µs, with a much wider spread.
const (
	daemonCatalogue = 512
	daemonRequests  = 3 * daemonCatalogue
	daemonZipfAlpha = 0.8
	// daemonPassSec is one pass's nominal seconds on the 2-vCPU machine
	// the benchmark was sized on.
	daemonPassSec = 2
)

var daemonKinds = [3]string{"netsim", "sched", "workload"}

// daemonSpec is one spec of the catalogue.
type daemonSpec struct {
	body []byte
	key  string
	kind string
}

// daemonTraffic is the catalogue and a seed's request list that names it.
type daemonTraffic struct {
	// specs[c] has popularity rank c+1.
	specs []daemonSpec
	// list holds the catalogue index each request names.
	list []int
}

func newDaemonTraffic(seed int64) (*daemonTraffic, error) {
	// spread returns the n-th point of the additive sequence with an
	// irrational step, scaled to [lo, hi): every prefix of it covers the
	// range evenly. Sizes and rates take different steps (golden ratio,
	// √2), so their pairs cover the plane evenly too.
	const sizeStep, rateStep = 0.6180339887498949, 0.41421356237309515
	spread := func(n int, step, lo, hi float64) float64 {
		_, frac := math.Modf(float64(n+1) * step)
		return lo + (hi-lo)*frac
	}
	policies, campaigns := qos.PolicyNames(), qos.CampaignNames()
	t := &daemonTraffic{specs: make([]daemonSpec, daemonCatalogue)}
	for c := range t.specs {
		kind, n := daemonKinds[c%len(daemonKinds)], c/len(daemonKinds)
		var spec serve.EvalSpec
		switch kind {
		case "netsim":
			// Fault-free and below ring capacity: link faults and
			// saturation made a spec's cost and allocation swing with its
			// seed.
			spec.Netsim = &serve.NetsimSpec{
				Name:        fmt.Sprintf("mix-%d", c),
				Sats:        int(spread(n, sizeStep, 8, 25)),
				K:           2 + 2*(n%2),
				PerSatMbps:  spread(n, rateStep, 100, 200),
				DurationSec: 10,
				Seed:        derive(0, c),
			}
		case "sched":
			spec.Sched = &serve.SchedSpec{
				Satellites:  int(spread(n, sizeStep, 4, 17)),
				DurationSec: 600,
				Seed:        derive(0, c),
			}
		case "workload":
			spec.Workload = &serve.WorkloadSpec{
				Policy:      policies[n%len(policies)],
				Campaign:    campaigns[n%len(campaigns)],
				Load:        spread(n, sizeStep, 0.5, 2),
				DurationSec: 120,
				Seed:        derive(0, c),
			}
		}
		body, err := json.Marshal(&spec)
		if err != nil {
			return nil, err
		}
		key, err := spec.Key()
		if err != nil {
			return nil, err
		}
		t.specs[c] = daemonSpec{body: body, key: key, kind: kind}
	}
	// Draw each request's rank from the Zipf law by inverting its CDF. The
	// draws are stratified — draw i takes a point of the i-th of
	// daemonRequests equal slices of [0, 1) — and the seed shuffles their
	// order, so every seed names each spec about as often as the law says
	// and the hit/cold mix varies with the order alone: i.i.d. draws
	// swung a pass's cold evals by twice as much from seed to seed.
	rng := rand.New(rand.NewSource(seed))
	cdf := make([]float64, daemonCatalogue)
	total := 0.0
	for r := range cdf {
		total += math.Pow(float64(r+1), -daemonZipfAlpha)
		cdf[r] = total
	}
	t.list = make([]int, daemonRequests)
	for i := range t.list {
		u := (float64(i) + rng.Float64()) / daemonRequests
		t.list[i] = min(sort.SearchFloat64s(cdf, u*total), daemonCatalogue-1)
	}
	rng.Shuffle(len(t.list), func(i, j int) { t.list[i], t.list[j] = t.list[j], t.list[i] })
	return t, nil
}

// request builds request i of the list.
func (t *daemonTraffic) request(i int) *http.Request {
	return httptest.NewRequest(http.MethodPost, "/v1/eval", bytes.NewReader(t.specs[t.list[i]].body))
}

func setupDaemonMix() (any, error) {
	h := serve.New(serve.Config{Workers: 1}).Handler()
	// Warm-up op: a workload spec outside every op list, which also runs
	// the lazy pipeline calibration behind experiments.WorkloadScenario.
	// The timed ops carry the output checks.
	body := `{"workload":{"policy":"priority","campaign":"combined","load":1,"duration_sec":120,"seed":1}}`
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/eval", strings.NewReader(body)))
	return nil, nil
}

// daemonServer is one fresh server and the specs it has been asked for.
type daemonServer struct {
	h    http.Handler
	seen [daemonCatalogue]bool
}

func newDaemonServer() *daemonServer {
	return &daemonServer{h: serve.New(serve.Config{Workers: 1}).Handler()}
}

// daemonCheck is daemon-mix's output check over one run. Every response is
// a 200 whose key and ETag are EvalSpec.Key() of the body. A spec's first
// request to a fresh server must miss. Every response for a spec must be
// byte-identical to the run's first one for it, whether it came from the
// cache or from a re-miss after eviction. And every fresh server must
// answer hit or miss to each request exactly as the run's first one did.
type daemonCheck struct {
	t      *daemonTraffic
	bodies [daemonCatalogue][]byte
	xcache [daemonRequests]string
}

// check checks srv's response to request i and reports whether it was a
// cache hit.
func (c *daemonCheck) check(srv *daemonServer, i int, rec *httptest.ResponseRecorder) (hit bool, err error) {
	if rec.Code != http.StatusOK {
		return false, fmt.Errorf("status %d: %s", rec.Code, rec.Body.String())
	}
	idx := c.t.list[i]
	key := c.t.specs[idx].key
	body := rec.Body.Bytes()
	if rec.Header().Get("ETag") != strconv.Quote(key) || !bytes.HasPrefix(body, []byte(`{"key":`+strconv.Quote(key))) {
		return false, fmt.Errorf("response key is not the body's key %s", key)
	}
	x := rec.Header().Get("X-Cache")
	first := !srv.seen[idx]
	srv.seen[idx] = true
	switch {
	case x != "hit" && x != "miss":
		return false, fmt.Errorf("X-Cache %q", x)
	case first && x != "miss":
		return false, fmt.Errorf("first request of spec %d answered X-Cache %q", idx, x)
	case c.xcache[i] != "" && x != c.xcache[i]:
		return false, fmt.Errorf("X-Cache %q, the run's first server answered %q", x, c.xcache[i])
	}
	c.xcache[i] = x
	if c.bodies[idx] == nil {
		c.bodies[idx] = body
	} else if !bytes.Equal(body, c.bodies[idx]) {
		return false, fmt.Errorf("response for spec %d differs from its first", idx)
	}
	return x == "hit", nil
}

func runDaemonMix(_ any, seed int64, seconds float64) (*report, error) {
	t, err := newDaemonTraffic(seed)
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true}
	chk := &daemonCheck{t: t}
	f := newFloors(daemonRequests)
	hits := make([]bool, daemonRequests)
	var alloc, passSecs []float64
	passed := 0
	// The first pass counts each request's heap bytes with
	// runtime.ReadMemStats, which stops the world, so ops_per_s is taken
	// over the passes after it: each pass's requests over its wall time,
	// collections during the pass included.
	for pass := 0; pass < passes(seconds, daemonPassSec, 2); pass++ {
		srv := newDaemonServer()
		runtime.GC()
		start := time.Now()
		for i := range t.list {
			rec := httptest.NewRecorder()
			req := t.request(i)
			s := measure(false, pass == 0, func() { srv.h.ServeHTTP(rec, req) })
			rep.attempted++
			f.add(i, s.ms)
			if pass == 0 {
				alloc = append(alloc, mb(s.allocB))
			}
			hit, err := chk.check(srv, i, rec)
			if err != nil {
				rep.failed++
				rep.note("pass %d request %d: %v", pass, i, err)
			} else if pass == 0 {
				hits[i] = hit
				passed++
			}
		}
		if pass > 0 {
			passSecs = append(passSecs, time.Since(start).Seconds())
		}
	}
	nHits, distinct := 0, 0
	for i := range hits {
		if hits[i] {
			nHits++
		}
	}
	for _, b := range chk.bodies {
		if b != nil {
			distinct++
		}
	}
	rep.note("each pass: %d cache hits; %d cold evals of %d distinct specs, so %d re-misses after eviction",
		nHits, daemonRequests-nHits, distinct, daemonRequests-nHits-distinct)
	hit := func(i int) bool { return hits[i] }
	return rep, rep.endToEnd(f, hit, daemonRequests, passSecs, alloc, float64(passed)/daemonRequests)
}

// evalSecs reads the daemon's cumulative serve.eval_secs from GET
// /v1/metrics.
func evalSecs(h http.Handler) (float64, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics?format=json", nil))
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		return 0, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	for _, hs := range snap.Histograms {
		if hs.Name == "serve.eval_secs" {
			return hs.Sum, nil
		}
	}
	return 0, errors.New("GET /v1/metrics: no serve.eval_secs")
}

// decodeHash is serve's per-request decode, validate and content-address
// step, called through the public EvalSpec API.
func decodeHash(body []byte) (*serve.EvalSpec, string, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec serve.EvalSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, "", err
	}
	if err := spec.Validate(); err != nil {
		return nil, "", err
	}
	key, err := spec.Key()
	return &spec, key, err
}

// daemonNetsimScenario mirrors the daemon's conversion of the single-shell
// cluster specs daemonList generates.
func daemonNetsimScenario(ns *serve.NetsimSpec) netsim.Scenario {
	return netsim.Scenario{
		Name: ns.Name,
		Topology: netsim.TopologySpec{
			Kind:    netsim.ClusterTopology,
			Sats:    ns.Sats,
			Cluster: isl.Topology{K: ns.K, Split: max(ns.Split, 1)},
			Tech:    isl.Optical10G,
		},
		PerSat:      units.DataRate(ns.PerSatMbps) * units.Mbps,
		DurationSec: ns.DurationSec,
		Seed:        ns.Seed,
		Faults:      netsim.FaultConfig{LinkOutage: ns.LinkOutage},
	}
}

func traceDaemonMix(_ any, seed int64, seconds float64, tr *tracer) (*report, error) {
	t, err := newDaemonTraffic(seed)
	if err != nil {
		return nil, err
	}
	rep := &report{correct: true}
	chk := &daemonCheck{t: t}
	var untracedHits, bytesKB []float64
	var runs netsimRuns
	coldMS := map[string][]float64{}
	var overhead []float64
	hits, mismatches := 0, 0
	var plain, traced *daemonServer
	var lastEval float64
	replayFor(daemonRequests, seconds, func(i, pass int) {
		if i == 0 {
			plain, traced = newDaemonServer(), newDaemonServer()
			lastEval = 0
			runtime.GC()
		}
		op := pass*daemonRequests + i
		spec := t.specs[t.list[i]]
		plainReq := func() error {
			rec := httptest.NewRecorder()
			req := t.request(i)
			s := measure(false, false, func() { plain.h.ServeHTTP(rec, req) })
			hit, err := chk.check(plain, i, rec)
			if hit {
				untracedHits = append(untracedHits, s.ms)
			}
			return err
		}
		tracedReq := func() error {
			rec := httptest.NewRecorder()
			req := t.request(i)
			root := tr.timed("serve.request", -1, op, func() { traced.h.ServeHTTP(rec, req) })
			hit, err := chk.check(traced, i, rec)
			if err != nil {
				return err
			}
			var es *serve.EvalSpec
			var key string
			tr.timed("serve.decode_hash", root, op, func() { es, key, err = decodeHash(spec.body) })
			if err == nil && key != spec.key {
				err = fmt.Errorf("decoded key %s != %s", key, spec.key)
			}
			if err != nil {
				return err
			}
			if hit {
				hits++
				return nil
			}
			total, err := evalSecs(traced.h)
			if err != nil {
				return err
			}
			evID := tr.record("serve.eval", root, op, total-lastEval)
			lastEval = total
			reqMS := tr.spans[root].ms()
			coldMS[spec.kind] = append(coldMS[spec.kind], reqMS)
			overhead = append(overhead, reqMS-tr.spans[evID].ms())
			bytesKB = append(bytesKB, float64(rec.Body.Len())/1024)
			if err := replayCold(tr, evID, op, es, rec.Body.Bytes(), &runs); err != nil {
				mismatches++
				rep.note("request %d: %v", i, err)
			}
			return nil
		}
		if err := plainAndTraced(op, plainReq, tracedReq); err != nil {
			rep.failed++
			rep.note("request %d: %v", i, err)
		}
		rep.attempted++
	})
	if mismatches > 0 {
		rep.correct = false
		rep.note("trace invalid: %d replays did not reproduce their response", mismatches)
	}
	var colds []float64
	for _, k := range daemonKinds {
		colds = append(colds, coldMS[k]...)
	}
	return rep, rep.layers(runs.metrics(tr), map[string]float64{
		"serve.cold_ms":          median(colds),
		"serve.decode_hash_us":   median(tr.ms("serve.decode_hash")) * 1e3,
		"serve.eval_ms":          median(tr.ms("serve.eval")),
		"serve.overhead_ms":      median(overhead),
		"serve.cache_hit_ratio":  float64(hits) / float64(hits+len(colds)),
		"serve.cold_netsim_ms":   median(coldMS["netsim"]),
		"serve.cold_sched_ms":    median(coldMS["sched"]),
		"serve.cold_workload_ms": median(coldMS["workload"]),
		"serve.response_kb":      mean(bytesKB),
		"qos.run_ms":             median(tr.ms("qos.run")),
		"workload.generate_ms":   median(tr.ms("workload.generate")),
		"trace.overhead_ratio":   median(hitSpans(tr)) / median(untracedHits),
		"trace.coverage":         tr.coverage(),
	})
}

// hitSpans returns the traced round trips of the cache hits: request spans
// with no eval child.
func hitSpans(tr *tracer) []float64 {
	cold := map[int]bool{}
	for _, s := range tr.spans {
		if s.Name == "serve.eval" {
			cold[s.Parent] = true
		}
	}
	var out []float64
	for _, s := range tr.spans {
		if s.Name == "serve.request" && !cold[s.ID] {
			out = append(out, s.ms())
		}
	}
	return out
}

// replayCold re-runs the layer call behind a cold netsim or workload eval
// as a child of its eval span and checks it reproduces the response's raw
// result.
func replayCold(tr *tracer, evID, op int, spec *serve.EvalSpec, body []byte, runs *netsimRuns) error {
	var resp struct {
		Netsim   json.RawMessage `json:"netsim_result"`
		Workload json.RawMessage `json:"workload_result"`
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return err
	}
	var got any
	var want json.RawMessage
	switch {
	case spec.Netsim != nil:
		res, err := runs.run(tr, evID, op, daemonNetsimScenario(spec.Netsim))
		if err != nil {
			return err
		}
		got, want = res, resp.Netsim
	case spec.Workload != nil:
		ws := spec.Workload
		sc, err := experiments.WorkloadScenario(ws.Policy, ws.Campaign, ws.Load, ws.DurationSec, ws.Seed)
		if err != nil {
			return err
		}
		var res qos.Result
		qosID := tr.timed("qos.run", evID, op, func() { res, err = qos.Run(sc) })
		if err != nil {
			return err
		}
		tr.timed("workload.generate", qosID, op, func() {
			var g *workload.Generator
			if g, err = workload.New(sc.Workload); err == nil {
				for _, ok := g.Next(); ok; _, ok = g.Next() {
				}
			}
		})
		if err != nil {
			return err
		}
		got, want = res, resp.Workload
	default:
		return nil
	}
	raw, err := json.Marshal(got)
	if err != nil {
		return err
	}
	if !bytes.Equal(raw, want) {
		return errors.New("replayed result differs from the response's")
	}
	return nil
}
