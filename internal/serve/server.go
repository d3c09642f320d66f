package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"slices"
	"strconv"
	"sync"
	"time"

	"spacedc/internal/experiments"
	"spacedc/internal/netsim"
	"spacedc/internal/obs"
	"spacedc/internal/optimize"
	"spacedc/internal/qos"
	"spacedc/internal/report"
	"spacedc/internal/sched"
)

// Config sizes the daemon.
type Config struct {
	// MaxInFlight bounds concurrent evaluations (≤ 0 → 4). Each admitted
	// evaluation runs inline and fans sub-jobs into the shared
	// internal/pool token budget, so total CPU pressure stays bounded by
	// MaxInFlight + the pool budget however many requests arrive.
	MaxInFlight int
	// QueueDepth bounds requests waiting for a slot (0 → 16; negative →
	// no queue, reject as soon as the slots fill); beyond it POST /v1/eval
	// responds 429 with a Retry-After hint.
	QueueDepth int
	// CacheSize bounds the content-addressed result cache in entries
	// (≤ 0 → 256).
	CacheSize int
	// Workers is the experiment-level pool fan-out per evaluation, the
	// sudcsim -workers knob (0 → one slot per CPU). Results are
	// bit-identical at any value.
	Workers int
	// EvalTimeout, when positive, caps each evaluation's wall time on top
	// of the client's own deadline.
	EvalTimeout time.Duration
}

// Server is the scenario-evaluation service: the experiment registry and
// the netsim/sched simulators behind an HTTP API with admission control,
// a content-addressed result cache, and live metrics streaming. Build one
// with New and serve its Handler.
type Server struct {
	cfg   Config
	reg   *obs.Registry // daemon-level wall-clock metrics (serve.*)
	cache *resultCache
	adm   *admission
	hub   *streamHub
	mux   *http.ServeMux

	// draining closes when Drain is called, ending open SSE streams so a
	// graceful http.Server.Shutdown is not held hostage by long-lived
	// stream connections.
	draining  chan struct{}
	drainOnce sync.Once

	// evalHook, when non-nil, replaces the simulator dispatch — tests use
	// it to make evaluations block or fail on command.
	evalHook func(ctx context.Context, spec *EvalSpec) ([]report.Table, error)
}

// runCounters are the scenario-run counters the daemon sums across
// evaluations: after each run, every one of them in the run's snapshot is
// added to the daemon counter "serve.<name>".
var runCounters = []string{
	"netsim.route_recomputes", "netsim.route_repairs",
	"optimize.proposals", "optimize.evaluated", "optimize.cache_hits",
	"optimize.infeasible", "optimize.accepted", "optimize.rejected",
	"optimize.restarts",
}

// defaults for Config zero values.
const (
	defaultMaxInFlight = 4
	defaultQueueDepth  = 16
	defaultCacheSize   = 256
)

// New builds a server.
func New(cfg Config) *Server {
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = defaultMaxInFlight
	}
	switch {
	case cfg.QueueDepth == 0:
		cfg.QueueDepth = defaultQueueDepth
	case cfg.QueueDepth < 0:
		cfg.QueueDepth = 0
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = defaultCacheSize
	}
	s := &Server{
		cfg:      cfg,
		reg:      obs.New(obs.WithWallClock()),
		cache:    newResultCache(cfg.CacheSize),
		adm:      newAdmission(cfg.MaxInFlight, cfg.QueueDepth),
		hub:      newStreamHub(),
		mux:      http.NewServeMux(),
		draining: make(chan struct{}),
	}
	// Pre-register the load-shedding and error counters, and the sums of
	// the run counters, so a fresh daemon's /v1/metrics shows them at zero
	// instead of growing names as failures and runs first occur.
	for _, name := range []string{
		"serve.eval.completed", "serve.eval.errors", "serve.eval.cache_hits",
		"serve.eval.rejected", "serve.eval.deadline_exceeded",
		"serve.eval.bad_requests", "serve.stream.run_dropped_events",
	} {
		s.reg.Counter(name)
	}
	for _, name := range runCounters {
		s.reg.Counter("serve." + name)
	}
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	s.mux.HandleFunc("POST /v1/eval", s.handleEval)
	s.mux.HandleFunc("GET /v1/results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /v1/stream", s.handleStream)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
	s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain ends open SSE streams so in-flight evaluations can finish and a
// graceful shutdown can complete. Wire it into
// http.Server.RegisterOnShutdown. Idempotent.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.draining) })
}

// evalResponse is the POST /v1/eval (and GET /v1/results/{key}) body. It
// is built only from deterministic inputs — the canonical spec, the
// rendered tables, and (for simulator scenarios) the run's sim-clock
// metrics snapshot — so identical specs always serialize to identical
// bytes, which is what makes the cache's stored body a faithful replay.
type evalResponse struct {
	Key  string    `json:"key"`
	Spec *EvalSpec `json:"spec"`
	// Text is the aligned-text rendering of every table, byte-identical
	// to `sudcsim <id>` stdout for experiment specs.
	Text   string         `json:"text"`
	Tables []report.Table `json:"tables"`
	// Netsim/Sched/Workload/Optimize carry the raw simulator result for
	// scenario specs.
	Netsim   *netsim.Result    `json:"netsim_result,omitempty"`
	Sched    *sched.Stats      `json:"sched_stats,omitempty"`
	Workload *qos.Result       `json:"workload_result,omitempty"`
	Optimize *optimize.Outcome `json:"optimize_result,omitempty"`
	// Metrics is the scenario run's deterministic sim-clock obs snapshot
	// (queue depths, utilizations, latency histograms). Omitted for
	// experiment specs, whose spans run on the wall clock.
	Metrics *obs.Snapshot `json:"metrics,omitempty"`
}

// handleExperiments is GET /v1/experiments: the registry listing.
func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Experiments []experiments.Info `json:"experiments"`
	}{experiments.List()})
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintf(w, `{"status":"ok","in_flight":%d,"queued":%d,"cache_entries":%d}`+"\n",
		s.adm.InFlight(), s.adm.Queued(), s.cache.len())
}

// handleMetrics is GET /v1/metrics: the daemon registry snapshot as an
// aligned text table, or JSON with ?format=json.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.reg.Gauge("serve.cache.entries").Set(float64(s.cache.len()))
	s.reg.Gauge("serve.admission.in_flight").Set(float64(s.adm.InFlight()))
	s.reg.Gauge("serve.admission.queued").Set(float64(s.adm.Queued()))
	s.reg.Gauge("serve.stream.clients").Set(float64(s.hub.clientCount()))
	s.reg.Gauge("serve.stream.dropped_events").Set(float64(s.hub.dropped.Load()))
	s.reg.Gauge("serve.admission.avg_eval_secs").Set(s.adm.AvgEvalSec())
	if r.URL.Query().Get("format") == "json" {
		writeJSON(w, http.StatusOK, s.reg.Snapshot())
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	if err := s.reg.WriteText(w); err != nil {
		// Headers are gone; nothing to do but drop the connection.
		return
	}
}

// handleResult is GET /v1/results/{key}: fetch a cached evaluation by its
// content address without re-running anything.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	body, ok := s.cache.get(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no cached result for %s", key))
		return
	}
	s.reg.Counter("serve.results.hits").Inc()
	writeCached(w, key, body, true)
}

// handleEval is POST /v1/eval: admission → cache/singleflight →
// evaluation → cached byte-identical response. ?stream=1 forces a live
// run (bypassing the cache read, still storing the result) whose per-step
// obs samples broadcast on /v1/stream tagged with the spec's key.
func (s *Server) handleEval(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("reading body: %w", err))
		return
	}
	spec, err := decodeSpec(body)
	if err != nil {
		s.reg.Counter("serve.eval.bad_requests").Inc()
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := spec.Key()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	stream := r.URL.Query().Get("stream") == "1"

	// Cache hits are served without consuming an admission slot: replaying
	// stored bytes is not an evaluation.
	if !stream {
		if cached, ok := s.cache.get(key); ok {
			s.reg.Counter("serve.eval.cache_hits").Inc()
			writeCached(w, key, cached, true)
			return
		}
	}

	ctx := r.Context()
	if s.cfg.EvalTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.EvalTimeout)
		defer cancel()
	}

	release, err := s.adm.Acquire(ctx)
	if err != nil {
		s.writeAdmissionError(w, err)
		return
	}
	defer release()

	evalOnce := func() ([]byte, error) {
		t0 := time.Now()
		resp, err := s.evaluate(ctx, key, spec, stream)
		if err != nil {
			return nil, err
		}
		s.adm.observeEval(time.Since(t0).Seconds())
		return json.Marshal(resp)
	}

	var out []byte
	hit := false
	if stream {
		// A streamed run is always live: no cache read, no flight sharing
		// (subscribers asked for this run's events, not a replay). The
		// result still lands in the cache for later hits.
		out, err = evalOnce()
		if err == nil {
			s.cache.put(key, out)
		}
	} else {
		out, hit, err = s.cache.do(key, evalOnce)
	}
	if err != nil {
		s.reg.Counter("serve.eval.errors").Inc()
		s.writeEvalError(w, err)
		return
	}
	s.reg.Counter("serve.eval.completed").Inc()
	if hit {
		s.reg.Counter("serve.eval.cache_hits").Inc()
	}
	writeCached(w, key, out, hit)
}

// evaluate dispatches one spec to the simulators and assembles the
// deterministic response. When stream is true the run's registry is
// subscribed into the hub under the spec key.
func (s *Server) evaluate(ctx context.Context, key string, spec *EvalSpec, stream bool) (*evalResponse, error) {
	span := s.reg.StartSpan("serve.eval_secs")
	defer span.End()

	resp := &evalResponse{Key: key, Spec: spec}

	// attach wires a run registry into the SSE hub and returns a reaper.
	attach := func(reg *obs.Registry) func() {
		if !stream || reg == nil {
			return func() {}
		}
		ch, cancel := reg.Subscribe(4096)
		stop := make(chan struct{})
		done := make(chan struct{})
		go s.hub.pump(key, ch, stop, done)
		return func() {
			close(stop)
			<-done
			cancel()
			// Losses between the run registry and the hub pump (a slow
			// SSE reader backed up the subscription buffer) roll into a
			// daemon-lifetime counter once the run detaches.
			s.reg.Counter("serve.stream.run_dropped_events").Add(int(reg.DroppedEvents()))
		}
	}

	if s.evalHook != nil {
		tables, err := s.evalHook(ctx, spec)
		if err != nil {
			return nil, err
		}
		resp.Tables = tables
		resp.Text = renderTables(tables)
		return resp, nil
	}

	if spec.Experiment != "" {
		// Experiment spans run on a per-run wall-clock registry: streamed
		// live when asked for, never serialized into the response (wall
		// times are not deterministic).
		var reg *obs.Registry
		if stream {
			reg = obs.New(obs.WithWallClock())
		}
		detach := attach(reg)
		tables, err := experiments.RunWorkers(ctx, reg, spec.Experiment, s.cfg.Workers)
		detach()
		if err != nil {
			return nil, err
		}
		resp.Tables = tables
		resp.Text = renderTables(tables)
		return resp, nil
	}

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	reg := obs.New() // sim clock: snapshot is deterministic
	detach := attach(reg)
	tables, err := s.runScenario(ctx, spec, reg, resp)
	detach()
	if err != nil {
		return nil, err
	}
	snap := reg.Snapshot()
	resp.Tables = tables
	resp.Text = renderTables(tables)
	resp.Metrics = &snap
	for _, c := range snap.Counters {
		if slices.Contains(runCounters, c.Name) {
			s.reg.Counter("serve." + c.Name).Add(int(c.Value))
		}
	}
	return resp, nil
}

// runScenario builds spec's scenario with reg as its registry, runs it,
// stores the raw result in resp and returns the result's tables.
func (s *Server) runScenario(ctx context.Context, spec *EvalSpec, reg *obs.Registry, resp *evalResponse) ([]report.Table, error) {
	switch {
	case spec.Netsim != nil:
		sc := spec.Netsim.scenario()
		sc.Obs = reg
		res, err := netsim.Run(sc)
		if err != nil {
			return nil, err
		}
		resp.Netsim = &res
		return []report.Table{netsimTable(sc, res)}, nil

	case spec.Sched != nil:
		cfg, proc, err := spec.Sched.config()
		if err != nil {
			return nil, err
		}
		cfg.Obs = reg
		st, err := sched.Simulate(cfg, proc)
		if err != nil {
			return nil, err
		}
		resp.Sched = &st
		return []report.Table{schedTable(spec.Sched, cfg, st)}, nil

	case spec.Workload != nil:
		sc, err := spec.Workload.scenario()
		if err != nil {
			return nil, err
		}
		sc.Obs = reg
		res, err := qos.Run(sc)
		if err != nil {
			return nil, err
		}
		resp.Workload = &res
		return []report.Table{workloadTable(spec.Workload, res)}, nil

	default: // spec.Optimize: Validate admits exactly one kind
		cfg, space := spec.Optimize.config(s.cfg.Workers)
		// The optimizer stamps progress samples by proposal count, so SSE
		// subscribers watch the search converge live on the sim clock.
		cfg.Obs = reg
		out, err := optimize.Search(ctx, cfg, space)
		if err != nil {
			return nil, err
		}
		resp.Optimize = out
		return optimize.Tables(out), nil
	}
}

// netsimTable renders a parameterized netsim run in the ext-netsim row
// format.
func netsimTable(sc netsim.Scenario, r netsim.Result) report.Table {
	title := fmt.Sprintf("netsim scenario %s (%d sats)", sc.Name, sc.Topology.TotalSats())
	if shells := len(sc.Topology.Shells); shells > 0 {
		title = fmt.Sprintf("netsim scenario %s (%d sats, %d shells)", sc.Name, sc.Topology.TotalSats(), shells)
	}
	t := report.Table{
		ID:    "netsim",
		Title: title,
		Columns: []string{"scenario", "offered", "delivered", "ratio",
			"p95 latency (s)", "bottleneck util", "retransmits", "drops"},
	}
	t.AddRow(sc.Name,
		r.OfferedRate.String(),
		r.DeliveredRate.String(),
		fmt.Sprintf("%.3f", r.DeliveryRatio),
		fmt.Sprintf("%.2f", r.LatencySec.P95),
		fmt.Sprintf("%.2f", r.BottleneckUtil),
		r.Retransmits,
		r.LinkDrops+r.NoRouteDrops)
	return t
}

// schedTable renders a parameterized sched run in the ext-sched row
// format.
func schedTable(ss *SchedSpec, cfg sched.Config, st sched.Stats) report.Table {
	app := ss.App
	if app == "" {
		app = "FD"
	}
	dev := ss.Device
	if dev == "" {
		dev = "rtx3090"
	}
	t := report.Table{
		ID:    "sched",
		Title: fmt.Sprintf("sched scenario: %s on %s, %d sats", app, dev, cfg.Satellites),
		Columns: []string{"target batch", "processed", "dropped",
			"mean latency (s)", "p95 (s)", "J/frame", "utilization"},
	}
	t.AddRow(cfg.TargetBatch, st.Processed, st.Dropped,
		fmt.Sprintf("%.2f", st.MeanLatencySec),
		fmt.Sprintf("%.2f", st.P95LatencySec),
		fmt.Sprintf("%.1f", st.EnergyPerFrameJ()),
		fmt.Sprintf("%.3f", st.Utilization))
	return t
}

// workloadTable renders a parameterized qos run: one row per priority
// class in the ext-workload column style, plus the run-level recovery
// figure in the title.
func workloadTable(ws *WorkloadSpec, r qos.Result) report.Table {
	recovery := "n/a"
	if r.RecoverySec >= 0 {
		recovery = fmt.Sprintf("%.1f s", r.RecoverySec)
	}
	t := report.Table{
		ID: "workload",
		Title: fmt.Sprintf("workload scenario %s: %d offered, %d shed, %d failed, recovery %s",
			r.Name, r.Offered, r.Shed, r.Failed, recovery),
		Columns: []string{"class", "offered", "admitted", "completed", "shed",
			"p99 (s)", "SLO", "goodput (req/s)"},
	}
	for _, c := range r.Classes {
		shed := c.ShedAdmission + c.ShedDeadline + c.ShedOverflow
		t.AddRow(c.Name, c.Offered, c.Admitted, c.Completed, shed,
			fmt.Sprintf("%.1f", c.P99LatencySec),
			fmt.Sprintf("%.3f", c.SLOAttainment),
			fmt.Sprintf("%.1f", c.GoodputPerSec))
	}
	return t
}

// renderTables concatenates every table's aligned-text rendering — the
// exact byte stream `sudcsim <id>` writes to stdout.
func renderTables(tables []report.Table) string {
	var out []byte
	for _, t := range tables {
		out = append(out, t.String()...)
	}
	return string(out)
}

// decodeSpec parses and validates a request body.
func decodeSpec(body []byte) (*EvalSpec, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var spec EvalSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("decoding spec: %w", err)
	}
	if dec.More() {
		return nil, errors.New("decoding spec: trailing data after JSON object")
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &spec, nil
}

// writeAdmissionError maps admission failures onto status codes.
func (s *Server) writeAdmissionError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrOverloaded):
		s.reg.Counter("serve.eval.rejected").Inc()
		w.Header().Set("Retry-After", strconv.Itoa(s.adm.RetryAfterSec()))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.Counter("serve.eval.deadline_exceeded").Inc()
		writeError(w, http.StatusGatewayTimeout, err)
	default:
		// Client went away while queued; the status is best-effort.
		writeError(w, http.StatusRequestTimeout, err)
	}
}

// writeEvalError maps evaluation failures onto status codes.
func (s *Server) writeEvalError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		s.reg.Counter("serve.eval.deadline_exceeded").Inc()
		writeError(w, http.StatusGatewayTimeout, err)
	case errors.Is(err, context.Canceled):
		writeError(w, http.StatusRequestTimeout, err)
	default:
		writeError(w, http.StatusUnprocessableEntity, err)
	}
}

// writeCached writes a stored evaluation body with its content address.
func writeCached(w http.ResponseWriter, key string, body []byte, hit bool) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("ETag", strconv.Quote(key))
	if hit {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
	}
	w.WriteHeader(http.StatusOK)
	w.Write(body) //nolint:errcheck — client disconnects are not actionable
}

// writeJSON marshals v with a status code.
func writeJSON(w http.ResponseWriter, status int, v any) {
	out, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(out)          //nolint:errcheck
	w.Write([]byte("\n")) //nolint:errcheck
}

// writeError reports err as {"error": "..."}.
func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	fmt.Fprintf(w, `{"error":%s}`+"\n", strconv.Quote(err.Error()))
}
