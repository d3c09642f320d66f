package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// subscribers reports the number of live subscriptions (zero on nil).
func subscribers(r *Registry) int {
	if r == nil {
		return 0
	}
	if subs := r.stream.subs.Load(); subs != nil {
		return len(*subs)
	}
	return 0
}

// TestJSONLSinkConcurrentHammer drives one sink from many goroutines with
// interleaved Emit, Flush, and a final Close — the sharing pattern of a
// daemon whose HTTP handlers and pool workers write into one registry. Run
// under -race (the CI tier-1 recipe does) it proves the sink's writer
// state is fully mutex-guarded; functionally it checks every line that
// made it out is intact JSON and nothing lands after Close.
func TestJSONLSinkConcurrentHammer(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	const goroutines = 16
	const events = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				sink.Emit(Event{TimeSec: float64(i), Name: fmt.Sprintf("g%02d", g), Kind: "sample", Value: float64(i)})
				if i%50 == 0 {
					sink.Flush() //nolint:errcheck — exercising the lock path
				}
			}
		}(g)
	}
	wg.Wait()
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	sink.Emit(Event{Name: "late", Kind: "sample"}) // must be dropped, not written
	if err := sink.Err(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Contains(out, "late") {
		t.Error("event emitted after Close reached the writer")
	}
	lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(lines) != goroutines*events {
		t.Fatalf("got %d lines, want %d", len(lines), goroutines*events)
	}
	for i, l := range lines {
		if !strings.HasPrefix(l, `{"t":`) || !strings.HasSuffix(l, "}") {
			t.Fatalf("line %d is torn: %q", i, l)
		}
	}
}

// TestJSONLSinkCloseIdempotent asserts repeated Close calls are safe and
// keep returning the same latched state.
func TestJSONLSinkCloseIdempotent(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	sink.Emit(Event{Name: "a", Kind: "sample"})
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 1 {
		t.Errorf("buffer has %d lines, want 1", got)
	}
}

// TestSubscribeReceivesEmits asserts subscribers see sink-bound events with
// registry timestamps, and that cancel detaches them.
func TestSubscribeReceivesEmits(t *testing.T) {
	r := New()
	ch, cancel := r.Subscribe(8)
	r.SetTime(42)
	r.Emit("netsim.queue_bits", "sample", 7)
	select {
	case e := <-ch:
		if e.Name != "netsim.queue_bits" || e.Value != 7 || e.TimeSec != 42 {
			t.Errorf("event = %+v", e)
		}
	default:
		t.Fatal("no event delivered")
	}
	if n := subscribers(r); n != 1 {
		t.Errorf("subscribers = %d, want 1", n)
	}
	cancel()
	cancel() // idempotent
	if n := subscribers(r); n != 0 {
		t.Errorf("subscribers after cancel = %d, want 0", n)
	}
	r.Emit("netsim.queue_bits", "sample", 8)
	select {
	case e := <-ch:
		t.Errorf("event %+v delivered after cancel", e)
	default:
	}
}

// TestSubscribeDropsOnFullBuffer asserts a stalled subscriber loses events
// instead of blocking the emitter.
func TestSubscribeDropsOnFullBuffer(t *testing.T) {
	r := New()
	ch, cancel := r.Subscribe(2)
	defer cancel()
	for i := 0; i < 10; i++ {
		r.Emit("x", "sample", float64(i)) // must not block
	}
	if len(ch) != 2 {
		t.Errorf("buffered %d events, want 2", len(ch))
	}
}

// TestDroppedEventsCounts asserts the registry-lifetime drop counter tracks
// every drop-on-full loss, survives cancel, and sums across subscriptions.
func TestDroppedEventsCounts(t *testing.T) {
	r := New()
	if n := r.DroppedEvents(); n != 0 {
		t.Fatalf("fresh registry DroppedEvents = %d, want 0", n)
	}
	ch, cancel := r.Subscribe(1)
	for i := 0; i < 3; i++ {
		r.Emit("x", "sample", float64(i))
	}
	if n := r.DroppedEvents(); n != 2 {
		t.Errorf("DroppedEvents = %d after 3 emits into buf 1, want 2", n)
	}
	<-ch // drain one slot; the next emit fits, the one after drops
	r.Emit("x", "sample", 3)
	r.Emit("x", "sample", 4)
	if n := r.DroppedEvents(); n != 3 {
		t.Errorf("DroppedEvents = %d, want 3", n)
	}
	cancel()
	// The total is registry-lifetime: canceling must not reset it, and a
	// second lagging subscription keeps accumulating into the same counter.
	if n := r.DroppedEvents(); n != 3 {
		t.Errorf("DroppedEvents = %d after cancel, want 3", n)
	}
	_, cancel2 := r.Subscribe(1)
	defer cancel2()
	r.Emit("x", "sample", 5)
	r.Emit("x", "sample", 6)
	if n := r.DroppedEvents(); n != 4 {
		t.Errorf("DroppedEvents = %d across subscriptions, want 4", n)
	}
}

// TestDroppedEventsNilRegistry asserts the nil-safety contract extends to
// the drop counter.
func TestDroppedEventsNilRegistry(t *testing.T) {
	var r *Registry
	if n := r.DroppedEvents(); n != 0 {
		t.Errorf("nil registry DroppedEvents = %d, want 0", n)
	}
}

// TestSubscribeConcurrentWithEmit hammers Subscribe/cancel against Emit
// from many goroutines; -race proves the copy-on-write set is sound.
func TestSubscribeConcurrentWithEmit(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					r.Emit("hammer", "sample", 1)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		ch, cancel := r.Subscribe(4)
		// Drain a little so delivery paths interleave with cancel.
		select {
		case <-ch:
		default:
		}
		cancel()
	}
	close(stop)
	wg.Wait()
	if n := subscribers(r); n != 0 {
		t.Errorf("subscribers = %d, want 0", n)
	}
}

// TestNilRegistrySubscribe asserts the nil-safety contract extends to the
// subscriber API.
func TestNilRegistrySubscribe(t *testing.T) {
	var r *Registry
	ch, cancel := r.Subscribe(1)
	if ch != nil {
		t.Error("nil registry returned a live channel")
	}
	cancel()
	if subscribers(r) != 0 {
		t.Error("nil registry has subscribers")
	}
}
