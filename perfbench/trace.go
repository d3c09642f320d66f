package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer. Spans stay in memory during the
// traced run and are written when it ends. A replayed call (a layer call
// re-timed after its op, with the op's inputs) is recorded as a child of
// the span it belongs to, so a span's self time — its duration minus its
// children's — attributes time without instrumenting the program.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for an op's root span
	Op     int     `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the traced run began
	End    float64 `json:"end_s"`
}

func (s span) ms() float64 { return (s.End - s.Start) * 1e3 }

// plainAndTraced runs an op untraced and traced, alternating which goes
// first so neither side always finds the caches warmed by the other.
func plainAndTraced(op int, plain, traced func() error) error {
	first, second := plain, traced
	if op%2 == 1 {
		first, second = traced, plain
	}
	if err := first(); err != nil {
		return err
	}
	return second()
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// timed runs f inside a new span and returns its id.
func (t *tracer) timed(name string, parent, op int, f func()) int {
	id := t.begin(name, parent, op)
	f()
	t.end(id)
	return id
}

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: time.Since(t.t0).Seconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Seconds() }

// record adds a span measured by someone else — the daemon's own eval
// timer — placed at the start of its parent.
func (t *tracer) record(name string, parent, op int, secs float64) int {
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name,
		Start: start, End: start + secs})
	return len(t.spans) - 1
}

// ms returns the durations of every span with the name.
func (t *tracer) ms(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

// childMS sums the durations of each span's direct children.
func (t *tracer) childMS() []float64 {
	c := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			c[s.Parent] += s.ms()
		}
	}
	return c
}

// selfMS returns the self time of every span with the name.
func (t *tracer) selfMS(name string) []float64 {
	c := t.childMS()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms()-c[s.ID])
		}
	}
	return out
}

// coverage is the share of root-span time that the roots' direct children
// account for, over every op of the run.
func (t *tracer) coverage() float64 {
	c := t.childMS()
	var parent, child float64
	for _, s := range t.spans {
		if s.Parent < 0 {
			parent += s.ms()
			child += c[s.ID]
		}
	}
	return child / parent
}

// write stores the spans, with their self times, as JSON lines under
// .bench_build/traces and returns the file's path.
func (t *tracer) write(workload string, seed int64, e env) (string, error) {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Env      env    `json:"env"`
	}{workload, seed, e}); err != nil {
		f.Close()
		return "", err
	}
	c := t.childMS()
	for _, s := range t.spans {
		if err := enc.Encode(struct {
			span
			SelfMS float64 `json:"self_ms"`
		}{s, s.ms() - c[s.ID]}); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
