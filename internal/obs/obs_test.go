package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	c.Add(-2) // counters only go up
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if c2 := r.Counter("c"); c2 != c {
		t.Error("same name should return the same counter")
	}
	g := r.Gauge("g")
	g.Set(2.5)
	g.Set(-1.25)
	if got := g.Value(); got != -1.25 {
		t.Errorf("gauge = %v, want -1.25", got)
	}
}

func TestHistogramMomentsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("h", LinearBuckets(1, 1, 10)) // bounds 1..10
	for v := 1; v <= 10; v++ {
		h.Observe(float64(v))
	}
	h.Observe(math.NaN()) // dropped
	if h.Count() != 10 {
		t.Errorf("count = %d, want 10", h.Count())
	}
	if got := h.Mean(); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("mean = %v, want 5.5", got)
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q0 = %v, want 1", got)
	}
	if got := h.Quantile(1); got != 10 {
		t.Errorf("q1 = %v, want 10", got)
	}
	if got := h.Quantile(0.5); got < 5 || got > 6 {
		t.Errorf("median = %v, want within [5, 6]", got)
	}
	// Overflow bucket reports the observed max.
	h.Observe(1e9)
	if got := h.Quantile(1); got != 1e9 {
		t.Errorf("overflow max = %v, want 1e9", got)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.SetTime(5)
	r.Emit("x", "mark", 1)
	c := r.Counter("c")
	c.Inc()
	c.Add(3)
	if c.Value() != 0 {
		t.Error("nil counter accumulated")
	}
	g := r.Gauge("g")
	g.Set(1)
	if g.Value() != 0 {
		t.Error("nil gauge stored")
	}
	h := r.Histogram("h", TimeBuckets)
	h.Observe(1)
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Error("nil histogram recorded")
	}
	sp := r.StartSpan("s")
	if d := sp.End(); d != 0 {
		t.Errorf("nil span duration = %v, want 0", d)
	}
	if s := r.Snapshot(); len(s.Counters)+len(s.Gauges)+len(s.Histograms) != 0 {
		t.Error("nil snapshot non-empty")
	}
	if r.Now() != 0 {
		t.Error("nil Now non-zero")
	}
}

// funcSink adapts a function to Sink.
type funcSink func(Event)

// Emit implements Sink.
func (f funcSink) Emit(e Event) { f(e) }

func TestSimClockSpansAreDeterministic(t *testing.T) {
	var events []Event
	r := New(WithSink(funcSink(func(e Event) { events = append(events, e) })))
	r.SetTime(10)
	sp := r.StartSpan("phase")
	r.SetTime(12.5)
	if d := sp.End(); d != 2.5 {
		t.Errorf("span duration = %v, want 2.5", d)
	}
	if len(events) != 1 || events[0].Kind != "span" || events[0].Value != 2.5 || events[0].TimeSec != 12.5 {
		t.Errorf("span event = %+v, want span/2.5 at t=12.5", events)
	}
	if h := r.Histogram("phase", TimeBuckets); h.Count() != 1 || h.snapshot("").Sum != 2.5 {
		t.Error("span did not land in its histogram")
	}
}

func TestWallClockAdvances(t *testing.T) {
	r := New(WithWallClock())
	t0 := r.Now()
	r.SetTime(1e9) // ignored on a wall-clock registry
	if r.Now() >= 1e9 {
		t.Error("SetTime affected wall clock")
	}
	sp := r.StartSpan("w")
	for i := 0; i < 1000; i++ {
		_ = i
	}
	if d := sp.End(); d < 0 {
		t.Errorf("wall span negative: %v", d)
	}
	if r.Now() < t0 {
		t.Error("wall clock went backwards")
	}
}

func TestBucketLayouts(t *testing.T) {
	if b := ExpBuckets(1, 2, 4); len(b) != 4 || b[0] != 1 || b[3] != 8 {
		t.Errorf("exp buckets = %v", b)
	}
	if b := LinearBuckets(0.1, 0.1, 3); len(b) != 3 || math.Abs(b[2]-0.3) > 1e-12 {
		t.Errorf("linear buckets = %v", b)
	}
	if ExpBuckets(0, 2, 4) != nil || ExpBuckets(1, 1, 4) != nil || LinearBuckets(0, 0, 3) != nil {
		t.Error("degenerate layouts should be nil")
	}
}

func TestSnapshotSortedAndComplete(t *testing.T) {
	r := New()
	r.Counter("b").Inc()
	r.Counter("a").Add(2)
	r.Gauge("z").Set(7)
	r.Histogram("h", CountBuckets).Observe(3)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a" || s.Counters[1].Name != "b" {
		t.Errorf("counters = %+v", s.Counters)
	}
	if len(s.Gauges) != 1 || s.Gauges[0].Value != 7 {
		t.Errorf("gauges = %+v", s.Gauges)
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 || s.Histograms[0].Min != 3 {
		t.Errorf("histograms = %+v", s.Histograms)
	}
}

func TestWriteTextRendersAllKinds(t *testing.T) {
	r := New()
	r.Counter("runs").Add(3)
	r.Gauge("ratio").Set(0.5)
	r.Histogram("lat", TimeBuckets).Observe(0.01)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"COUNTER", "runs", "3", "GAUGE", "ratio", "0.5", "HISTOGRAM", "lat"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestConcurrentMetricUse(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("shared")
			h := r.Histogram("hist", CountBuckets)
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 10))
				r.Gauge("g").Set(float64(i))
				r.SetTime(float64(i))
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Errorf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("hist", CountBuckets).Count(); got != 8000 {
		t.Errorf("histogram count = %d, want 8000", got)
	}
}
