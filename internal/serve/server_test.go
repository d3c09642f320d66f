package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"spacedc/internal/experiments"
	"spacedc/internal/obs"
	"spacedc/internal/report"
)

// post runs one POST /v1/eval against the server's handler.
func post(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

// get runs one GET against the server's handler.
func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	return w
}

func decodeEval(t *testing.T, body []byte) evalResponse {
	t.Helper()
	var resp evalResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decoding eval response: %v\nbody: %s", err, body)
	}
	return resp
}

// TestEvalExperimentMatchesBatch locks the service's core contract: the
// text an eval returns for an experiment is byte-identical to what the
// sudcsim batch CLI prints for the same ID, at any worker count.
func TestEvalExperimentMatchesBatch(t *testing.T) {
	tables, err := experiments.RunWorkers(context.Background(), nil, "table5", 1)
	if err != nil {
		t.Fatal(err)
	}
	want := renderTables(tables)

	for _, workers := range []int{1, 3} {
		s := New(Config{Workers: workers})
		w := post(t, s, "/v1/eval", `{"experiment":"table5"}`)
		if w.Code != http.StatusOK {
			t.Fatalf("workers=%d: status %d: %s", workers, w.Code, w.Body.String())
		}
		resp := decodeEval(t, w.Body.Bytes())
		if resp.Text != want {
			t.Errorf("workers=%d: daemon text differs from batch output:\ndaemon:\n%s\nbatch:\n%s", workers, resp.Text, want)
		}
		if resp.Metrics != nil {
			t.Errorf("workers=%d: experiment response carries a metrics snapshot (nondeterministic wall clock)", workers)
		}
		if resp.Key == "" || !strings.HasPrefix(resp.Key, "sha256:") {
			t.Errorf("workers=%d: bad key %q", workers, resp.Key)
		}
	}
}

// TestEvalCacheHit asserts a repeated identical request is a cache hit
// with a byte-identical body, also replayable via GET /v1/results/{key}.
func TestEvalCacheHit(t *testing.T) {
	s := New(Config{})

	first := post(t, s, "/v1/eval", `{"experiment":"table5"}`)
	if first.Code != http.StatusOK {
		t.Fatalf("first eval: status %d: %s", first.Code, first.Body.String())
	}
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first eval X-Cache = %q, want miss", got)
	}

	// Same scenario, different JSON field order and whitespace: still a hit.
	second := post(t, s, "/v1/eval", ` { "experiment" : "table5" } `)
	if second.Code != http.StatusOK {
		t.Fatalf("second eval: status %d: %s", second.Code, second.Body.String())
	}
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second eval X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Error("cache hit body differs from original")
	}
	if first.Header().Get("ETag") != second.Header().Get("ETag") {
		t.Error("ETag changed between miss and hit")
	}

	key := decodeEval(t, first.Body.Bytes()).Key
	replay := get(t, s, "/v1/results/"+key)
	if replay.Code != http.StatusOK {
		t.Fatalf("results replay: status %d", replay.Code)
	}
	if !bytes.Equal(first.Body.Bytes(), replay.Body.Bytes()) {
		t.Error("results replay body differs from original")
	}

	if miss := get(t, s, "/v1/results/sha256:0000"); miss.Code != http.StatusNotFound {
		t.Errorf("unknown result key: status %d, want 404", miss.Code)
	}
}

// TestEvalScenarioDeterministic asserts a parameterized scenario eval is
// pure content: two independent server instances produce byte-identical
// bodies (including the sim-clock metrics snapshot) for the same spec.
func TestEvalScenarioDeterministic(t *testing.T) {
	const spec = `{"netsim":{"sats":4,"per_sat_mbps":200,"duration_sec":30,"link_outage":0.01,"seed":7}}`
	var bodies [2][]byte
	for i := range bodies {
		s := New(Config{})
		w := post(t, s, "/v1/eval", spec)
		if w.Code != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, w.Code, w.Body.String())
		}
		bodies[i] = w.Body.Bytes()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("identical netsim spec produced different bodies on two fresh servers")
	}
	resp := decodeEval(t, bodies[0])
	if resp.Netsim == nil {
		t.Fatal("netsim eval response missing netsim_result")
	}
	if resp.Metrics == nil || len(resp.Metrics.Gauges)+len(resp.Metrics.Counters)+len(resp.Metrics.Histograms) == 0 {
		t.Error("netsim eval response missing sim-clock metrics snapshot")
	}
	if resp.Netsim.DeliveryRatio <= 0 {
		t.Errorf("delivery ratio %v, want > 0", resp.Netsim.DeliveryRatio)
	}
}

// TestEvalSchedScenario asserts the sched spec path end to end.
func TestEvalSchedScenario(t *testing.T) {
	s := New(Config{})
	w := post(t, s, "/v1/eval", `{"sched":{"satellites":2,"duration_sec":60,"app":"FD","device":"rtx3090"}}`)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeEval(t, w.Body.Bytes())
	if resp.Sched == nil {
		t.Fatal("sched eval response missing sched_stats")
	}
	if resp.Sched.Processed == 0 {
		t.Error("sched run processed no frames")
	}
	if resp.Metrics == nil {
		t.Error("sched eval response missing sim-clock metrics snapshot")
	}
	if !strings.Contains(resp.Text, "sched scenario") {
		t.Errorf("text rendering missing table title:\n%s", resp.Text)
	}
}

// TestEvalWorkloadScenario asserts the workload spec path end to end:
// deterministic bodies across fresh servers, the qos result and sim-clock
// metrics in the response, a cache hit on repeat, and byte-identity
// between streamed and unstreamed runs.
func TestEvalWorkloadScenario(t *testing.T) {
	const spec = `{"workload":{"policy":"priority","campaign":"ground-outage","load":1.5,"duration_sec":120,"seed":9}}`
	var bodies [2][]byte
	for i := range bodies {
		s := New(Config{})
		w := post(t, s, "/v1/eval", spec)
		if w.Code != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, w.Code, w.Body.String())
		}
		bodies[i] = w.Body.Bytes()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("identical workload spec produced different bodies on two fresh servers")
	}
	resp := decodeEval(t, bodies[0])
	if resp.Workload == nil {
		t.Fatal("workload eval response missing workload_result")
	}
	if resp.Workload.Offered == 0 || resp.Workload.Completed == 0 {
		t.Errorf("workload run served nothing: %+v", resp.Workload)
	}
	if len(resp.Workload.Classes) != 3 {
		t.Errorf("workload result has %d classes, want 3", len(resp.Workload.Classes))
	}
	if resp.Metrics == nil || len(resp.Metrics.Counters) == 0 {
		t.Error("workload eval response missing sim-clock metrics snapshot")
	}
	if !strings.Contains(resp.Text, "workload scenario") {
		t.Errorf("text rendering missing table title:\n%s", resp.Text)
	}

	// Repeat on the same server: cache hit, same bytes. A streamed run
	// bypasses the cache read but must still produce the identical body.
	s := New(Config{})
	first := post(t, s, "/v1/eval", spec)
	if got := first.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first eval X-Cache = %q, want miss", got)
	}
	second := post(t, s, "/v1/eval", spec)
	if got := second.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second eval X-Cache = %q, want hit", got)
	}
	streamed := post(t, s, "/v1/eval?stream=1", spec)
	if streamed.Code != http.StatusOK {
		t.Fatalf("streamed eval: status %d: %s", streamed.Code, streamed.Body.String())
	}
	if !bytes.Equal(first.Body.Bytes(), streamed.Body.Bytes()) {
		t.Error("streamed workload run body differs from unstreamed run")
	}
}

// TestEvalRejectsBadSpecs asserts malformed bodies are 400s and bump the
// bad-request counter, never touching admission.
func TestEvalRejectsBadSpecs(t *testing.T) {
	s := New(Config{})
	for _, body := range []string{``, `{}`, `{"experiment":"nope"}`, `{"netsim":{"sats":-1,"per_sat_mbps":1}}`} {
		if w := post(t, s, "/v1/eval", body); w.Code != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, w.Code)
		}
	}
}

// TestEvalRejectsOversizedNetsim asserts a netsim spec whose graph or
// load netsim cannot hold in bounded memory or account exactly — above the
// node ceiling (one-plane or stacked), a fractional segment size, a
// per-satellite rate far over the offered-segment cap, a rate that
// overflows to +Inf — is refused with a 422 before any graph is allocated
// or any run starts, and the daemon stays healthy.
func TestEvalRejectsOversizedNetsim(t *testing.T) {
	s := New(Config{})
	for _, body := range []string{
		`{"netsim":{"sats":1099511627776,"per_sat_mbps":1}}`,
		`{"netsim":{"shells":[{"sats":9},{"sats":1099511627776}],"per_sat_mbps":1}}`,
		`{"netsim":{"sats":8,"per_sat_mbps":100,"segment_bits":1000000.5}}`,
		`{"netsim":{"sats":8,"per_sat_mbps":1e12}}`,
		`{"netsim":{"sats":8,"per_sat_mbps":1e303}}`,
	} {
		if w := post(t, s, "/v1/eval", body); w.Code != http.StatusUnprocessableEntity {
			t.Errorf("body %s: status %d, want 422: %s", body, w.Code, w.Body.String())
		}
	}
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz after oversized specs: status %d", w.Code)
	}
}

// TestEvalRejectsUnboundedRuns asserts sched and workload specs whose run
// has no practical end — more satellites than sched.MaxSatellites, more
// arrivals than sched.MaxArrivals, more steps than qos.MaxSteps, more
// candidate draws than workload.MaxDraws — decode as valid specs but are
// refused with a 422 by the simulators' checks, which run before any
// event is queued or any request drawn.
func TestEvalRejectsUnboundedRuns(t *testing.T) {
	s := New(Config{})
	for _, body := range []string{
		`{"sched":{"satellites":1,"duration_sec":1e12}}`,
		`{"sched":{"satellites":100000000}}`,
		`{"workload":{"load":1e6}}`,
		`{"workload":{"policy":"priority","load":1,"duration_sec":1e12}}`,
	} {
		spec, err := decodeSpec([]byte(body))
		if err != nil {
			t.Errorf("body %s: decode: %v", body, err)
			continue
		}
		if spec.Sched != nil {
			cfg, _, err := spec.Sched.config()
			if err != nil {
				t.Fatal(err)
			}
			if cfg.Validate() == nil {
				t.Errorf("body %s: sched config accepted", body)
				continue
			}
		}
		if w := post(t, s, "/v1/eval", body); w.Code != http.StatusUnprocessableEntity {
			t.Errorf("body %s: status %d, want 422: %s", body, w.Code, w.Body.String())
		}
	}
	if w := get(t, s, "/healthz"); w.Code != http.StatusOK {
		t.Errorf("healthz after unbounded specs: status %d", w.Code)
	}
}

// TestEvalOverload asserts the admission gate: with one slot and no
// queue, a second concurrent eval is rejected 429 with a Retry-After
// hint while the first completes normally.
func TestEvalOverload(t *testing.T) {
	s := New(Config{MaxInFlight: 1, QueueDepth: -1})
	entered := make(chan struct{})
	releaseEval := make(chan struct{})
	s.evalHook = func(ctx context.Context, spec *EvalSpec) ([]report.Table, error) {
		close(entered)
		<-releaseEval
		return nil, nil
	}

	firstDone := make(chan *httptest.ResponseRecorder, 1)
	go func() { firstDone <- post(t, s, "/v1/eval", `{"experiment":"fig2"}`) }()
	<-entered // first request holds the only slot

	// Distinct spec so neither the cache nor singleflight can absorb it.
	second := post(t, s, "/v1/eval", `{"experiment":"fig3"}`)
	if second.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded eval: status %d, want 429: %s", second.Code, second.Body.String())
	}
	if ra := second.Header().Get("Retry-After"); ra == "" {
		t.Error("429 response missing Retry-After")
	}

	close(releaseEval)
	if w := <-firstDone; w.Code != http.StatusOK {
		t.Fatalf("first eval after release: status %d: %s", w.Code, w.Body.String())
	}
}

// TestEvalDeadline asserts the per-request deadline propagates into the
// evaluation and surfaces as 504.
func TestEvalDeadline(t *testing.T) {
	s := New(Config{EvalTimeout: 20 * time.Millisecond})
	s.evalHook = func(ctx context.Context, spec *EvalSpec) ([]report.Table, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	w := post(t, s, "/v1/eval", `{"experiment":"fig2"}`)
	if w.Code != http.StatusGatewayTimeout {
		t.Fatalf("deadline eval: status %d, want 504: %s", w.Code, w.Body.String())
	}
	// The failed evaluation must not be cached; a retry runs it again.
	s.evalHook = func(ctx context.Context, spec *EvalSpec) ([]report.Table, error) {
		return nil, nil
	}
	if w := post(t, s, "/v1/eval", `{"experiment":"fig2"}`); w.Code != http.StatusOK {
		t.Fatalf("retry after deadline: status %d", w.Code)
	}
}

// TestConcurrentDistinctEvals asserts distinct in-flight evaluations all
// make progress under the admission bound.
func TestConcurrentDistinctEvals(t *testing.T) {
	s := New(Config{MaxInFlight: 2, QueueDepth: 16})
	specs := []string{
		`{"netsim":{"sats":4,"per_sat_mbps":100,"duration_sec":10,"seed":1}}`,
		`{"netsim":{"sats":4,"per_sat_mbps":100,"duration_sec":10,"seed":2}}`,
		`{"netsim":{"sats":6,"per_sat_mbps":100,"duration_sec":10,"seed":3}}`,
		`{"sched":{"satellites":2,"duration_sec":30,"seed":4}}`,
		`{"sched":{"satellites":3,"duration_sec":30,"seed":5}}`,
		`{"experiment":"table5"}`,
	}
	var wg sync.WaitGroup
	codes := make([]int, len(specs))
	for i, spec := range specs {
		wg.Add(1)
		go func(i int, spec string) {
			defer wg.Done()
			codes[i] = post(t, s, "/v1/eval", spec).Code
		}(i, spec)
	}
	wg.Wait()
	for i, code := range codes {
		if code != http.StatusOK {
			t.Errorf("spec %d: status %d, want 200", i, code)
		}
	}
	if got := s.cache.len(); got != len(specs) {
		t.Errorf("cache holds %d entries, want %d", got, len(specs))
	}
}

// TestExperimentsEndpoint asserts the registry listing carries IDs and
// descriptions.
func TestExperimentsEndpoint(t *testing.T) {
	s := New(Config{})
	w := get(t, s, "/v1/experiments")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var listing struct {
		Experiments []experiments.Info `json:"experiments"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Experiments) != len(experiments.IDs()) {
		t.Errorf("listing has %d entries, registry has %d", len(listing.Experiments), len(experiments.IDs()))
	}
	for _, info := range listing.Experiments {
		if info.ID == "" || info.Description == "" {
			t.Errorf("entry %+v missing ID or description", info)
		}
	}
}

// TestHealthz asserts liveness plus the gauge fields.
func TestHealthz(t *testing.T) {
	s := New(Config{})
	w := get(t, s, "/healthz")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var health struct {
		Status       string `json:"status"`
		InFlight     int    `json:"in_flight"`
		Queued       int    `json:"queued"`
		CacheEntries int    `json:"cache_entries"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if health.Status != "ok" {
		t.Errorf("status = %q, want ok", health.Status)
	}
}

// TestMetricsEndpoint asserts both renderings of the daemon registry.
func TestMetricsEndpoint(t *testing.T) {
	s := New(Config{})
	post(t, s, "/v1/eval", `{"experiment":"table5"}`)

	text := get(t, s, "/v1/metrics")
	if text.Code != http.StatusOK {
		t.Fatalf("text metrics: status %d", text.Code)
	}
	if !strings.Contains(text.Body.String(), "serve.eval.completed") {
		t.Errorf("text metrics missing serve.eval.completed:\n%s", text.Body.String())
	}

	jsonW := get(t, s, "/v1/metrics?format=json")
	if jsonW.Code != http.StatusOK {
		t.Fatalf("json metrics: status %d", jsonW.Code)
	}
	var snap map[string]any
	if err := json.Unmarshal(jsonW.Body.Bytes(), &snap); err != nil {
		t.Fatalf("json metrics not JSON: %v", err)
	}
}

// TestMetricsOverloadSurface asserts the admission/stream health gauges and
// the pre-registered shed counters are visible on a fresh daemon, and that
// the eval-time EWMA moves after an evaluation completes.
func TestMetricsOverloadSurface(t *testing.T) {
	s := New(Config{})

	fresh := get(t, s, "/v1/metrics")
	if fresh.Code != http.StatusOK {
		t.Fatalf("metrics: status %d", fresh.Code)
	}
	body := fresh.Body.String()
	for _, name := range []string{
		"serve.admission.in_flight",
		"serve.admission.queued",
		"serve.admission.avg_eval_secs",
		"serve.stream.clients",
		"serve.stream.dropped_events",
		"serve.stream.run_dropped_events",
		"serve.eval.rejected",
		"serve.eval.deadline_exceeded",
		"serve.eval.bad_requests",
		"serve.eval.errors",
	} {
		if !strings.Contains(body, name) {
			t.Errorf("fresh daemon metrics missing %s:\n%s", name, body)
		}
	}
	if s.adm.AvgEvalSec() != 0 {
		t.Errorf("fresh daemon AvgEvalSec = %v, want 0", s.adm.AvgEvalSec())
	}

	post(t, s, "/v1/eval", `{"experiment":"table5"}`)
	if s.adm.AvgEvalSec() <= 0 {
		t.Errorf("AvgEvalSec = %v after an eval, want > 0", s.adm.AvgEvalSec())
	}
}

// TestStreamSSE runs a streamed netsim eval against a live httptest
// server and asserts per-step obs samples arrive on /v1/stream tagged
// with the run's content address.
func TestStreamSSE(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/v1/stream", nil)
	if err != nil {
		t.Fatal(err)
	}
	streamResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if got := streamResp.Header.Get("Content-Type"); got != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", got)
	}

	// Wait for the subscription to land before launching the run.
	deadline := time.Now().Add(5 * time.Second)
	for s.hub.clientCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream client never registered")
		}
		time.Sleep(time.Millisecond)
	}

	const spec = `{"netsim":{"sats":4,"per_sat_mbps":200,"duration_sec":20,"seed":3}}`
	evalResp, err := http.Post(ts.URL+"/v1/eval?stream=1", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	evalBody := new(bytes.Buffer)
	if _, err := evalBody.ReadFrom(evalResp.Body); err != nil {
		t.Fatal(err)
	}
	evalResp.Body.Close()
	if evalResp.StatusCode != http.StatusOK {
		t.Fatalf("streamed eval: status %d: %s", evalResp.StatusCode, evalBody.String())
	}
	wantRun := decodeEval(t, evalBody.Bytes()).Key

	// Scan the SSE feed for a sample from that run.
	scanner := bufio.NewScanner(streamResp.Body)
	found := false
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e streamEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		if e.Run == wantRun && strings.HasPrefix(e.Name, "netsim.") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no netsim sample for run %s on the stream (scan err: %v)", wantRun, scanner.Err())
	}

	// A ?stream=1 run still lands in the cache.
	if _, ok := s.cache.get(wantRun); !ok {
		t.Error("streamed run result not cached")
	}

	// A workload run's per-step qos samples ride the same stream.
	const wlSpec = `{"workload":{"policy":"priority","campaign":"none","load":0.5,"duration_sec":60,"seed":2}}`
	wlResp, err := http.Post(ts.URL+"/v1/eval?stream=1", "application/json", strings.NewReader(wlSpec))
	if err != nil {
		t.Fatal(err)
	}
	wlBody := new(bytes.Buffer)
	if _, err := wlBody.ReadFrom(wlResp.Body); err != nil {
		t.Fatal(err)
	}
	wlResp.Body.Close()
	if wlResp.StatusCode != http.StatusOK {
		t.Fatalf("streamed workload eval: status %d: %s", wlResp.StatusCode, wlBody.String())
	}
	wantWl := decodeEval(t, wlBody.Bytes()).Key
	found = false
	for scanner.Scan() {
		line := scanner.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var e streamEvent
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &e); err != nil {
			t.Fatalf("bad SSE data line %q: %v", line, err)
		}
		if e.Run == wantWl && strings.HasPrefix(e.Name, "qos.") {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no qos sample for run %s on the stream (scan err: %v)", wantWl, scanner.Err())
	}
}

// TestDrainEndsStreams asserts Drain unblocks open SSE handlers so
// graceful shutdown can complete.
func TestDrainEndsStreams(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	deadline := time.Now().Add(5 * time.Second)
	for s.hub.clientCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stream client never registered")
		}
		time.Sleep(time.Millisecond)
	}
	s.Drain()

	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 4096)
		for {
			if _, err := resp.Body.Read(buf); err != nil {
				return // stream ended
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not end after Drain")
	}
}

// TestRetryAfterEstimate pins the admission EWMA math.
func TestRetryAfterEstimate(t *testing.T) {
	a := newAdmission(2, 4)
	if got := a.RetryAfterSec(); got != 1 {
		t.Errorf("empty EWMA: Retry-After %d, want 1", got)
	}
	a.observeEval(10)
	if got := a.RetryAfterSec(); got != 5 { // 10s avg × 1 waiter ÷ 2 slots
		t.Errorf("Retry-After %d, want 5", got)
	}
}

// TestAdmissionQueueCancellation asserts a queued waiter respects its
// context deadline.
func TestAdmissionQueueCancellation(t *testing.T) {
	a := newAdmission(1, 4)
	release, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := a.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued Acquire error = %v, want DeadlineExceeded", err)
	}
	release()
	// The slot is free again.
	release2, err := a.Acquire(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	release2()
	if got := fmt.Sprint(a.InFlight(), a.Queued()); got != "0 0" {
		t.Errorf("in_flight/queued = %s, want 0 0", got)
	}
}

// TestNetsimRoutingCountersSurface asserts the daemon's run-counter
// aggregation: a fresh daemon's /v1/metrics shows all nine
// serve.netsim.* and serve.optimize.* counters at zero; after a faulty
// netsim eval (with the incremental repair path exercised), an optimize,
// a sched and a workload eval, each equals the sum of its run counter
// over the responses' sim-clock snapshots; and a cache hit adds nothing.
func TestNetsimRoutingCountersSurface(t *testing.T) {
	s := New(Config{})
	runCounters := []string{
		"netsim.route_recomputes", "netsim.route_repairs",
		"optimize.proposals", "optimize.evaluated", "optimize.cache_hits",
		"optimize.infeasible", "optimize.accepted", "optimize.rejected",
		"optimize.restarts",
	}
	daemonCounters := func() map[string]int64 {
		t.Helper()
		w := get(t, s, "/v1/metrics?format=json")
		if w.Code != http.StatusOK {
			t.Fatalf("json metrics: status %d", w.Code)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal(w.Body.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		return counterValues(snap)
	}

	fresh := daemonCounters()
	for _, name := range runCounters {
		if v, ok := fresh["serve."+name]; !ok || v != 0 {
			t.Errorf("fresh daemon serve.%s = %d (registered %v), want pre-registered 0", name, v, ok)
		}
	}

	const faultyNetsim = `{"netsim":{"sats":8,"per_sat_mbps":100,"duration_sec":60,"link_outage":0.1,"link_mttr_sec":10,"seed":3}}`
	want := map[string]int64{}
	for _, spec := range []string{
		faultyNetsim,
		optimizeSpecSmall,
		`{"sched":{"satellites":2,"duration_sec":60,"app":"FD","device":"rtx3090"}}`,
		`{"workload":{"policy":"priority","load":0.5,"duration_sec":60,"seed":1}}`,
	} {
		w := post(t, s, "/v1/eval", spec)
		if w.Code != http.StatusOK {
			t.Fatalf("eval %s: status %d: %s", spec, w.Code, w.Body.String())
		}
		resp := decodeEval(t, w.Body.Bytes())
		if resp.Metrics == nil {
			t.Fatalf("eval %s: response missing metrics snapshot", spec)
		}
		if resp.Netsim != nil && resp.Netsim.RouteRepairs == 0 {
			t.Fatal("faulty run exercised no incremental route repairs")
		}
		run := counterValues(*resp.Metrics)
		for _, name := range runCounters {
			want["serve."+name] += run[name]
		}
	}
	if want["serve.netsim.route_repairs"] == 0 || want["serve.optimize.proposals"] == 0 {
		t.Fatalf("run snapshots carry no routing or optimizer counts: %v", want)
	}
	if w := post(t, s, "/v1/eval", faultyNetsim); w.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeated netsim spec X-Cache = %q, want hit", w.Header().Get("X-Cache"))
	}

	agg := daemonCounters()
	for name, v := range want {
		if got, ok := agg[name]; !ok || got != v {
			t.Errorf("daemon %s = %d (registered %v), want %d summed over the run snapshots", name, got, ok, v)
		}
	}
}

// counterValues maps a snapshot's counter names to their values.
func counterValues(snap obs.Snapshot) map[string]int64 {
	m := make(map[string]int64, len(snap.Counters))
	for _, c := range snap.Counters {
		m[c.Name] = c.Value
	}
	return m
}

// TestEvalMultiShellScenario asserts the multi-shell netsim spec end to
// end: two fresh servers produce byte-identical bodies for a 2-shell
// stack, the rule names decode, and malformed stacks are rejected with
// 400s rather than reaching the simulator.
func TestEvalMultiShellScenario(t *testing.T) {
	const spec = `{"netsim":{"shells":[{"sats":9,"alt_km":550},{"sats":6,"k":2,"alt_km":800}],` +
		`"inter_shell":"nearest","per_sat_mbps":500,"duration_sec":30,"link_outage":0.05,"seed":3}}`
	var bodies [2][]byte
	for i := range bodies {
		s := New(Config{})
		w := post(t, s, "/v1/eval", spec)
		if w.Code != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, w.Code, w.Body.String())
		}
		bodies[i] = w.Body.Bytes()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("identical multi-shell spec produced different bodies on two fresh servers")
	}
	resp := decodeEval(t, bodies[0])
	if resp.Netsim == nil {
		t.Fatal("multi-shell eval response missing netsim_result")
	}
	if resp.Netsim.DeliveryRatio <= 0 {
		t.Errorf("delivery ratio %v, want > 0", resp.Netsim.DeliveryRatio)
	}

	s := New(Config{})
	for _, bad := range []string{
		`{"netsim":{"sats":4,"shells":[{"sats":9}],"per_sat_mbps":100}}`,
		`{"netsim":{"shells":[{"sats":9},{"sats":0}],"per_sat_mbps":100}}`,
		`{"netsim":{"shells":[{"sats":9},{"sats":6}],"inter_shell":"diagonal","per_sat_mbps":100}}`,
		`{"netsim":{"shells":[{"sats":9},{"sats":6}],"cross_links":-1,"per_sat_mbps":100}}`,
	} {
		if w := post(t, s, "/v1/eval", bad); w.Code != http.StatusBadRequest {
			t.Errorf("spec %s: status %d, want 400", bad, w.Code)
		}
	}
}

// TestEvalOptimizeShellAxes drives a search whose space carries the
// shell-count and inter-shell axes through the daemon, asserting the
// request stays deterministic and yields a feasible best design.
func TestEvalOptimizeShellAxes(t *testing.T) {
	const spec = `{"optimize":{"seed":11,"budget":8,"restarts":2,` +
		`"space":{"planes":[1],"sats_per_plane":[8],"altitudes_km":[550],` +
		`"topologies":[{"k":2,"split":1}],"devices":[1],"recoveries":["retry"],` +
		`"shell_counts":[1,2],"inter_shells":["aligned","nearest"]}}}`
	var bodies [2][]byte
	for i := range bodies {
		s := New(Config{})
		w := post(t, s, "/v1/eval", spec)
		if w.Code != http.StatusOK {
			t.Fatalf("server %d: status %d: %s", i, w.Code, w.Body.String())
		}
		bodies[i] = w.Body.Bytes()
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("identical shell-axis optimize spec produced different bodies on two fresh servers")
	}
	resp := decodeEval(t, bodies[0])
	if resp.Optimize == nil {
		t.Fatal("optimize eval response missing optimize_result")
	}
	if !resp.Optimize.Best.Score.Feasible || resp.Optimize.Best.Score.Objective <= 0 {
		t.Errorf("degenerate best candidate: %+v", resp.Optimize.Best)
	}
}
