package netsim

import (
	"math"
	"math/bits"
	"sort"
)

// segment is the flow-level unit of transfer: a fixed-size slice of one
// satellite's stream.
type segment struct {
	flow int   // source node ID
	seq  int64 // per-flow sequence number
	bits float64
	// born is the first-transmission time of the original copy; delivery
	// latency is measured from it even across retransmissions.
	born float64
}

// segRun is n segments of one flow with consecutive sequence numbers
// starting at seq, all of the same size and birth time. A source emits
// each step's segments as one run and FIFO service keeps them contiguous
// at every later hop, so queues and the in-flight list hold runs instead
// of single segments. Each per-segment float sum (queue admission,
// service, delivered bits, the latency sum) is taken for the whole run in
// a closed form that gives the bits the per-segment sums gave, so results
// do not depend on how segments are grouped into runs.
type segRun struct {
	segment
	n int
}

// txGroup is the window entry for the segments one generate call emitted:
// consecutive sequence numbers from first up to the next group's first
// (the source's last sequence number for the newest group), all born at
// the same time. Those segments are sent together, so the live ones time
// out together and are retransmitted, held or abandoned together: one
// deadline and one attempt count hold for every live segment of a group
// at all times. Which of them are still live is kept in the source's
// bitmap.
type txGroup struct {
	first    int64
	born     float64
	deadline float64
	live     int32 // live segments left in the group
	attempts int32
}

// maxGroup bounds a group's size so its live count fits in an int32. A
// generate call emitting more segments than this opens several groups.
const maxGroup = math.MaxInt32

// flowParams is what every source of a run shares: the generation rate,
// the segment size and the transport policy.
type flowParams struct {
	rateBps     float64
	segmentBits float64
	cfg         TransportConfig
}

// source is one EO satellite's flow endpoint: it quantizes the generation
// rate into segments and retransmits with exponential backoff until a
// copy reaches a SµDC or the attempt budget runs out.
//
// Every step reads every source, so at constellation scale a step's cost
// follows the source's size: the fields generate and expire read on every
// step come first, sharing one cache line, and the run-wide parameters
// sit behind one shared pointer.
type source struct {
	node   int
	credit float64
	// nextDeadline is a conservative lower bound on the earliest live
	// deadline in the window: expire returns immediately while now is
	// before it, instead of walking every outstanding group every step.
	// open lowers it on emission and expire re-tightens it on every walk;
	// acks can only raise the true minimum, so the stale bound stays a
	// valid lower bound and at worst costs one extra walk. At constellation
	// scale with deep fault-regime windows this turns the per-step timer
	// scan from O(outstanding) into O(1) on the (vast majority of) steps
	// where nothing times out.
	nextDeadline float64
	*flowParams

	seq int64
	// Outstanding segments form a sliding window of groups, groups[head:]
	// in sequence order, plus a bitmap marking the live ones: bit k of
	// live[bitHead:] is sequence number bitBase+k. Acked and abandoned
	// segments are cleared bits until their whole group is dead and pops
	// off the front. The window costs one group per step and one bit per
	// segment, so one that lost segments hold open for a whole run of
	// heavy traffic stays a few kilobytes. Both slices compact in place,
	// so they reallocate only on genuine window growth, and walking the
	// groups yields timeouts in sequence order.
	groups  []txGroup
	head    int
	live    []uint64
	bitHead int
	bitBase int64

	// abandoned records, in ascending order, the sequence numbers the
	// timeout path gave up on whose copies may still be in flight. It is
	// what lets ack tell a late arrival of an abandoned segment (no
	// earlier copy ever arrived — not a duplicate) from a true duplicate
	// of a delivered one. An entry is removed when its first copy lands;
	// entries whose copies were all dropped persist for the run, so the
	// record grows with the abandoned count (rare, fault-regime-only) —
	// never with offered load, keeping transport memory-flat.
	abandoned []int64
}

// ackResult classifies what a segment's arrival at a sink meant to its
// source.
type ackResult int

const (
	// ackDelivered: first copy to arrive, segment still outstanding.
	ackDelivered ackResult = iota
	// ackDuplicate: an earlier copy already arrived.
	ackDuplicate
	// ackLateAbandoned: first copy to arrive, but only after the source
	// exhausted the attempt budget and abandoned the segment.
	ackLateAbandoned
)

// newSource initializes the endpoint.
func newSource(nodeID int, p *flowParams) source {
	return source{node: nodeID, nextDeadline: math.Inf(1), flowParams: p}
}

// isLive reports whether seq is an outstanding segment of the window.
func (s *source) isLive(seq int64) bool {
	if seq < s.bitBase {
		return false
	}
	k := seq - s.bitBase
	i := s.bitHead + int(k>>6)
	return i < len(s.live) && s.live[i]&(1<<(k&63)) != 0
}

// kill clears live segment seq's bit.
func (s *source) kill(seq int64) {
	k := seq - s.bitBase
	s.live[s.bitHead+int(k>>6)] &^= 1 << (k & 63)
}

// end returns one past the last sequence number of group gi.
func (s *source) end(gi int) int64 {
	if gi+1 < len(s.groups) {
		return s.groups[gi+1].first
	}
	return s.seq + 1
}

// group returns the index of the window group holding seq, which must lie
// in the window.
func (s *source) group(seq int64) int {
	lo, hi := s.head, len(s.groups)-1
	for lo < hi {
		mid := int(uint(lo+hi+1) >> 1)
		if s.groups[mid].first <= seq {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	return lo
}

// open appends the n fresh segments first..first+n-1, born at born and due
// at deadline, to the window as one group (several if n exceeds maxGroup).
// The dead prefix of each slice is compacted in place once it reaches half
// the backing array, so the append can reuse capacity instead of growing
// it.
func (s *source) open(first int64, n int, born, deadline float64) {
	if s.head == len(s.groups) {
		s.groups, s.head = s.groups[:0], 0
		s.live, s.bitHead, s.bitBase = s.live[:0], 0, first
	} else {
		if s.head > 0 && s.head*2 >= len(s.groups) {
			s.groups, s.head = s.groups[:copy(s.groups, s.groups[s.head:])], 0
		}
		if s.bitHead > 0 && s.bitHead*2 >= len(s.live) {
			s.live, s.bitHead = s.live[:copy(s.live, s.live[s.bitHead:])], 0
		}
	}
	for k := 0; k < n; k += maxGroup {
		s.groups = append(s.groups, txGroup{first: first + int64(k), born: born, deadline: deadline,
			live: int32(min(n-k, maxGroup)), attempts: 1})
	}
	lo := first - s.bitBase
	hi := lo + int64(n)
	for s.bitHead+int((hi+63)>>6) > len(s.live) {
		s.live = append(s.live, 0)
	}
	for lo < hi {
		b := lo & 63
		m := min(hi-lo, 64-b)
		s.live[s.bitHead+int(lo>>6)] |= (^uint64(0) >> (64 - m)) << b
		lo += m
	}
	if deadline < s.nextDeadline {
		s.nextDeadline = deadline
	}
}

// trim pops dead groups off the front of the window and the bitmap words
// that covered only them.
func (s *source) trim() {
	for s.head < len(s.groups) && s.groups[s.head].live == 0 {
		s.head++
	}
	if s.head == len(s.groups) {
		s.groups, s.head = s.groups[:0], 0
		s.live, s.bitHead = s.live[:0], 0
		return
	}
	for first := s.groups[s.head].first; s.bitBase+64 <= first; s.bitBase += 64 {
		s.bitHead++
	}
}

// generate accrues dt's worth of data, emits the segments it completes as
// one run, and returns how many. A failed satellite generates nothing (its
// sensor is down with it). The credit stays below 2^53 and the segment
// size is a whole number of bits (Scenario.Validate), so taking the n
// whole segments off at once is exact, as taking them one by one was.
func (s *source) generate(now, dt float64, alive bool, emit func(segRun)) int {
	if !alive {
		return 0
	}
	s.credit += s.rateBps * dt
	if s.credit < s.segmentBits {
		return 0
	}
	n := int(int64(s.credit) / int64(s.segmentBits)) // the conversion floors
	s.credit -= float64(n) * s.segmentBits
	first := s.seq + 1
	s.seq += int64(n)
	s.open(first, n, now, now+s.cfg.RTOSec)
	emit(segRun{segment{flow: s.node, seq: first, bits: s.segmentBits, born: now}, n})
	return n
}

// ack records a copy's arrival at a sink. The first copy of an
// outstanding segment is a delivery; a copy of a segment the timeout path
// already abandoned is a late-after-abandon arrival (no earlier copy made
// it — the old bool API misfiled these as duplicates once trim popped the
// window slot); anything else is a true duplicate. A late-after-abandon
// arrival consumes the abandoned record, so further copies of the same
// segment count as duplicates of it.
func (s *source) ack(seq int64) ackResult {
	delivered, late, _ := s.ackRun(segRun{segment{seq: seq}, 1})
	switch {
	case delivered > 0:
		return ackDelivered
	case late > 0:
		return ackLateAbandoned
	}
	return ackDuplicate
}

// ackRun acks the segments of a run that reached a sink and returns how
// many were deliveries, late arrivals of abandoned segments, and
// duplicates. Live and abandoned segments are disjoint, so it clears the
// run's live bits group by group a word at a time, cuts the run's range
// out of the abandoned record only when some segment was not live, and
// counts the rest as duplicates: the same counts and window that acking
// one segment at a time in sequence order gave.
func (s *source) ackRun(run segRun) (delivered, late, dups int) {
	lo, hi := run.seq, run.seq+int64(run.n)
	if s.head < len(s.groups) {
		from := max(lo, s.groups[s.head].first)
		for gi := s.group(from); from < hi && gi < len(s.groups); gi++ {
			end := min(hi, s.end(gi))
			if end <= from {
				break // past the newest sequence number
			}
			k := s.killRange(from, end)
			s.groups[gi].live -= int32(k)
			delivered += k
			from = end
		}
	}
	if delivered < run.n {
		late = s.dropAbandoned(lo, hi)
	}
	if delivered > 0 {
		s.trim()
	}
	return delivered, late, run.n - delivered - late
}

// killRange clears the live bits of sequence numbers [from, to), all in
// the window, and returns how many were set.
func (s *source) killRange(from, to int64) int {
	n := 0
	lo, hi := from-s.bitBase, to-s.bitBase
	for lo < hi {
		b := lo & 63
		m := min(hi-lo, 64-b)
		mask := (^uint64(0) >> (64 - m)) << b
		w := &s.live[s.bitHead+int(lo>>6)]
		n += bits.OnesCount64(*w & mask)
		*w &^= mask
		lo += m
	}
	return n
}

// noteAbandoned inserts seq into the sorted abandoned record.
func (s *source) noteAbandoned(seq int64) {
	i := sort.Search(len(s.abandoned), func(i int) bool { return s.abandoned[i] >= seq })
	s.abandoned = append(s.abandoned, 0)
	copy(s.abandoned[i+1:], s.abandoned[i:])
	s.abandoned[i] = seq
}

// dropAbandoned removes the abandoned record's entries in [lo, hi) and
// returns how many there were.
func (s *source) dropAbandoned(lo, hi int64) int {
	i := sort.Search(len(s.abandoned), func(i int) bool { return s.abandoned[i] >= lo })
	j := i
	for j < len(s.abandoned) && s.abandoned[j] < hi {
		j++
	}
	s.abandoned = append(s.abandoned[:i], s.abandoned[j:]...)
	return j - i
}

// expire retransmits every timed-out segment with exponentially backed-off
// deadlines, abandoning those that exhaust the attempt budget. It returns
// the retransmission and abandonment counts.
//
// The window stores segments in sequence order, so walking it emits
// retransmissions deterministically — the property Run and Sweep's
// bit-identical promise rests on, which the old map-backed version had to
// restore with a collect-and-sort pass every step. A group's live
// segments time out together; each stretch of consecutive ones leaves as
// one run.
func (s *source) expire(now float64, alive bool, emit func(segRun)) (retransmits, abandoned int) {
	if now < s.nextDeadline {
		return 0, 0
	}
	next := math.Inf(1)
	for gi := s.head; gi < len(s.groups); gi++ {
		g := &s.groups[gi]
		if g.live == 0 {
			continue
		}
		if now < g.deadline {
			if g.deadline < next {
				next = g.deadline
			}
			continue
		}
		if int(g.attempts) >= s.cfg.MaxAttempts {
			for seq, end := g.first, s.end(gi); seq < end; seq++ {
				if s.isLive(seq) {
					s.kill(seq)
					s.noteAbandoned(seq)
				}
			}
			abandoned += int(g.live)
			g.live = 0
			continue
		}
		if !alive {
			// The satellite is down; push the timer out one RTO and let
			// recovery retry.
			g.deadline = now + s.cfg.RTOSec
		} else {
			g.attempts++
			rto := s.cfg.RTOSec
			for a := int32(1); a < g.attempts; a++ {
				rto *= s.cfg.Backoff
			}
			g.deadline = now + rto
			retransmits += int(g.live)
			var run segRun
			for seq, end := g.first, s.end(gi); seq < end; seq++ {
				switch {
				case !s.isLive(seq):
				case run.n > 0 && run.seq+int64(run.n) == seq:
					run.n++
				default:
					if run.n > 0 {
						emit(run)
					}
					run = segRun{segment{flow: s.node, seq: seq, bits: s.segmentBits, born: g.born}, 1}
				}
			}
			if run.n > 0 {
				emit(run)
			}
		}
		if g.deadline < next {
			next = g.deadline
		}
	}
	s.nextDeadline = next
	s.trim()
	return retransmits, abandoned
}
