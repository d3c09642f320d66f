package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"sync"
	"text/tabwriter"
)

// Event is one record on the observability stream: a closed span, an
// explicit sample, or a mark.
type Event struct {
	TimeSec float64
	Name    string
	Kind    string
	Value   float64
}

// Sink consumes the event stream. Implementations must tolerate
// concurrent Emit calls (sweep workers share one registry).
type Sink interface {
	Emit(Event)
}

// JSONLSink streams events as one JSON object per line. Writes are
// buffered; call Flush (or Close, which also closes an underlying closer)
// when done. The first write error is latched and reported by Err —
// emission never fails loudly on a hot path.
type JSONLSink struct {
	mu     sync.Mutex
	w      *bufio.Writer
	c      io.Closer
	err    error
	closed bool
}

// NewJSONLSink wraps w. If w is also an io.Closer, Close will close it.
func NewJSONLSink(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	s.c, _ = w.(io.Closer)
	return s
}

// Emit implements Sink. Emitting after Close is a silent no-op, so a
// daemon handler racing a shutdown flush cannot write into a closed file.
func (s *JSONLSink) Emit(e Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil || s.closed {
		return
	}
	// Hand-rolled encoding: names and kinds are code-controlled
	// identifiers, so strconv.Quote produces valid JSON strings without an
	// encoder allocation per event.
	_, err := fmt.Fprintf(s.w, `{"t":%s,"name":%s,"kind":%s,"value":%s}`+"\n",
		formatJSONFloat(e.TimeSec), strconv.Quote(e.Name), strconv.Quote(e.Kind), formatJSONFloat(e.Value))
	if err != nil {
		s.err = err
	}
}

// formatJSONFloat renders f as a JSON number (NaN/Inf become 0, which JSON
// cannot represent).
func formatJSONFloat(f float64) string {
	if f != f || f > 1.7e308 || f < -1.7e308 {
		return "0"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// Flush drains the buffer.
func (s *JSONLSink) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}

// Close flushes and closes the underlying writer when it is closable. The
// whole sequence runs under the sink mutex, so an Emit racing Close either
// lands in the flushed output or is dropped cleanly — never written into a
// closed file. Close is idempotent; later calls return the latched error.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return s.err
	}
	s.closed = true
	if err := s.w.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// Err returns the first write error, if any.
func (s *JSONLSink) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// WriteText renders every metric as an aligned text table: counters and
// gauges as name/value pairs, histograms with count, mean, p50, p95, min,
// and max. Rows are sorted by name so output is diffable.
func (r *Registry) WriteText(w io.Writer) error {
	s := r.Snapshot()
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	if len(s.Counters) > 0 {
		fmt.Fprintln(tw, "COUNTER\tVALUE")
		for _, c := range s.Counters {
			fmt.Fprintf(tw, "%s\t%d\n", c.Name, c.Value)
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(tw, "GAUGE\tVALUE")
		for _, g := range s.Gauges {
			fmt.Fprintf(tw, "%s\t%g\n", g.Name, g.Value)
		}
	}
	if len(s.Histograms) > 0 {
		fmt.Fprintln(tw, "HISTOGRAM\tCOUNT\tMEAN\tP50\tP95\tMIN\tMAX")
		for _, h := range s.Histograms {
			fmt.Fprintf(tw, "%s\t%d\t%.4g\t%.4g\t%.4g\t%.4g\t%.4g\n",
				h.Name, h.Count, h.Mean, h.P50, h.P95, h.Min, h.Max)
		}
	}
	return tw.Flush()
}
