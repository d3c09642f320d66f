package obs

import (
	"sync"
	"sync/atomic"
)

// subscription is one live subscriber to a registry's event stream.
type subscription struct {
	ch      chan Event
	dropped atomic.Int64
}

// subscriberSet is the copy-on-write slice Emit walks lock-free.
type subscriberSet struct {
	mu   sync.Mutex // guards Subscribe/cancel rewrites
	subs atomic.Pointer[[]*subscription]
	// dropped accumulates drop-on-full losses across all subscriptions,
	// including canceled ones — the registry-lifetime total behind
	// DroppedEvents.
	dropped atomic.Int64
}

// Subscribe attaches a buffered event channel to the registry: every Emit
// and closed Span is delivered to it alongside the sink, which is how the
// sudcsimd SSE endpoint taps a run's per-step samples without the run
// knowing about HTTP. Delivery is non-blocking — when the subscriber's
// buffer is full the event is dropped (and counted) rather than stalling
// the instrumented simulator, so a slow stream reader can lose samples but
// can never perturb or throttle a run.
//
// cancel detaches the subscription; the channel is never closed (a close
// could race a concurrent Emit), so readers must stop on their own signal
// — typically the HTTP request context — and then call cancel. buf ≤ 0
// defaults to 256. A nil registry returns a nil channel and a no-op
// cancel.
func (r *Registry) Subscribe(buf int) (<-chan Event, func()) {
	if r == nil {
		return nil, func() {}
	}
	if buf <= 0 {
		buf = 256
	}
	s := &subscription{ch: make(chan Event, buf)}
	r.stream.mu.Lock()
	old := r.stream.subs.Load()
	var next []*subscription
	if old != nil {
		next = append(next, *old...)
	}
	next = append(next, s)
	r.stream.subs.Store(&next)
	r.stream.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			r.stream.mu.Lock()
			defer r.stream.mu.Unlock()
			cur := r.stream.subs.Load()
			if cur == nil {
				return
			}
			rest := make([]*subscription, 0, len(*cur))
			for _, o := range *cur {
				if o != s {
					rest = append(rest, o)
				}
			}
			if len(rest) == 0 {
				r.stream.subs.Store(nil)
			} else {
				r.stream.subs.Store(&rest)
			}
		})
	}
	return s.ch, cancel
}

// DroppedEvents reports the total number of events lost to full subscriber
// buffers over the registry's lifetime, including subscriptions since
// canceled (zero on nil). A non-zero value means a reader lagged and its
// sample stream has gaps — the run itself was never perturbed.
func (r *Registry) DroppedEvents() int64 {
	if r == nil {
		return 0
	}
	return r.stream.dropped.Load()
}

// deliver fans one event out to every live subscription, dropping on full
// buffers. Callers have already checked the set is non-nil.
func (s *subscriberSet) deliver(e Event) {
	subs := s.subs.Load()
	if subs == nil {
		return
	}
	for _, sub := range *subs {
		select {
		case sub.ch <- e:
		default:
			sub.dropped.Add(1)
			s.dropped.Add(1)
		}
	}
}
