// Package obs is the observability layer shared by the simulators and the
// experiment drivers: a lightweight metrics registry (counters, gauges,
// histograms with fixed bucket layouts), span-style timers that run on
// either wall clock or a deterministic sim clock, and pluggable event
// sinks (JSONL stream, aligned text table, no-op default).
//
// The layer is built to disappear when unused. Every handle type is
// nil-safe: a nil *Registry hands out nil *Counter / *Gauge / *Histogram
// handles and zero Spans, and every operation on a nil handle is a no-op.
// Instrumented hot paths therefore resolve their handles once up front and
// pay a single nil-check per site when observability is disabled — no map
// lookups, no locks, no allocations. Metrics never feed back into the
// code they observe, without exception: no engine reads a registry or
// subscribes to one to decide anything, so instrumenting a deterministic
// simulator cannot perturb its results.
package obs

import (
	"sort"
	"sync"
)

// Registry owns a flat namespace of metrics, a clock for span timestamps,
// and an optional event sink. The zero registry is unusable — build one
// with New. Metric creation is mutex-guarded; the returned handles are
// safe for concurrent use.
type Registry struct {
	clock  Clock
	sim    *SimClock // non-nil when the registry runs on sim time
	sink   Sink
	stream subscriberSet // live Subscribe channels; copy-on-write

	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// Option configures a Registry at construction.
type Option func(*Registry)

// WithSink attaches an event sink; spans and Emit calls stream to it.
func WithSink(s Sink) Option { return func(r *Registry) { r.sink = s } }

// WithWallClock times spans and events on the wall clock (seconds since
// registry creation) instead of the default deterministic sim clock.
func WithWallClock() Option {
	return func(r *Registry) {
		r.clock = NewWallClock()
		r.sim = nil
	}
}

// New builds a registry. By default it runs on an internal SimClock that
// the instrumented simulator advances via SetTime, so all timestamps are
// deterministic simulation times.
func New(opts ...Option) *Registry {
	sim := &SimClock{}
	r := &Registry{
		clock:      sim,
		sim:        sim,
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
	for _, o := range opts {
		o(r)
	}
	return r
}

// SetTime advances the registry's sim clock to t. It is a no-op on a nil
// registry or a wall-clock registry, so simulators call it unconditionally.
func (r *Registry) SetTime(t float64) {
	if r == nil || r.sim == nil {
		return
	}
	r.sim.Set(t)
}

// Now returns the registry's current time (zero on a nil registry).
func (r *Registry) Now() float64 {
	if r == nil {
		return 0
	}
	return r.clock.Now()
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil handle whose methods are all no-ops.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use (later calls reuse the existing layout).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// Emit streams one event to the sink and every live Subscribe channel,
// timestamped on the registry clock. It costs one nil-check plus one
// atomic load when the registry has neither sink nor subscribers.
func (r *Registry) Emit(name, kind string, value float64) {
	if r == nil {
		return
	}
	subs := r.stream.subs.Load()
	if r.sink == nil && subs == nil {
		return
	}
	e := Event{TimeSec: r.clock.Now(), Name: name, Kind: kind, Value: value}
	if r.sink != nil {
		r.sink.Emit(e)
	}
	if subs != nil {
		r.stream.deliver(e)
	}
}

// StartSpan opens a span-style timer on the registry clock. End records
// the duration into the histogram named after the span and emits a "span"
// event. A nil registry returns a zero Span whose End is a no-op.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	return Span{reg: r, name: name, start: r.clock.Now()}
}

// Snapshot is a point-in-time copy of the registry's metrics, sorted by
// name within each kind.
type Snapshot struct {
	Counters   []CounterSnapshot
	Gauges     []GaugeSnapshot
	Histograms []HistogramSnapshot
}

// CounterSnapshot is one counter's state.
type CounterSnapshot struct {
	Name  string
	Value int64
}

// GaugeSnapshot is one gauge's state.
type GaugeSnapshot struct {
	Name  string
	Value float64
}

// HistogramSnapshot is one histogram's summary.
type HistogramSnapshot struct {
	Name           string
	Count          int64
	Sum            float64
	Min, Mean, Max float64
	P50, P95       float64
	Bounds         []float64
	Counts         []int64 // len(Bounds)+1; last is overflow
}

// Snapshot copies out every metric. Nil registries yield an empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, CounterSnapshot{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, GaugeSnapshot{Name: name, Value: g.Value()})
	}
	for name, h := range r.histograms {
		s.Histograms = append(s.Histograms, h.snapshot(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}
