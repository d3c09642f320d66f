package netsim

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"spacedc/internal/obs"
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
// copy reaches a SµDC or the attempt budget runs out. A run's sources sit
// in one flows set, which visits a source only on the steps it emits or
// has a timer due; the run-wide parameters sit behind one shared pointer.
type source struct {
	node int
	// credit is the data generated but not yet emitted, accrued through
	// step settled; the flows set brings it up to date when the source
	// emits or its satellite fails or recovers.
	credit  float64
	settled int
	// genAt and expAt are the steps the flows set's calendars file the
	// source's emission and timer walk at, or 0 for none in the run.
	genAt, expAt int
	// nextDeadline is a conservative lower bound on the earliest live
	// deadline in the window: the flows set files the timer walk at the
	// first step that reaches it. open lowers it on emission and expire
	// re-tightens it on every walk; acks can only raise the true minimum,
	// so the stale bound stays a valid lower bound and at worst costs one
	// extra walk.
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
	// what lets ackRun tell a late arrival of an abandoned segment (no
	// earlier copy ever arrived — not a duplicate) from a true duplicate
	// of a delivered one. An entry is removed when its first copy lands;
	// entries whose copies were all dropped persist for the run, so the
	// record grows with the abandoned count (rare, fault-regime-only) —
	// never with offered load, keeping transport memory-flat.
	abandoned []int64
}

// newSource initializes the endpoint.
func newSource(nodeID int, p *flowParams) source {
	return source{node: nodeID, nextDeadline: math.Inf(1), flowParams: p}
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
	s.nextDeadline = min(s.nextDeadline, deadline)
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

// release emits the whole segments the credit holds as one run. The
// credit stays below 2^53 and the segment size is a whole number of bits
// (Scenario.Validate), so taking the n whole segments off at once is
// exact, as taking them one by one was.
func (s *source) release(now float64, emit func(segRun)) {
	n := int(int64(s.credit) / int64(s.segmentBits)) // the conversion floors
	s.credit -= float64(n) * s.segmentBits
	first := s.seq + 1
	s.seq += int64(n)
	s.open(first, n, now, now+s.cfg.RTOSec)
	emit(segRun{segment{flow: s.node, seq: first, bits: s.segmentBits, born: now}, n})
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

// liveRuns calls f for each stretch of consecutive live sequence numbers
// in [from, to), all in the window, in ascending order, reading the bitmap
// a word at a time.
func (s *source) liveRuns(from, to int64, f func(seq int64, n int)) {
	var start int64
	n := 0
	lo, hi := from-s.bitBase, to-s.bitBase
	for lo < hi {
		b := lo & 63
		m := min(hi-lo, 64-b)
		w := s.live[s.bitHead+int(lo>>6)] >> b & (^uint64(0) >> (64 - m))
		for at := lo; w != 0; {
			z := bits.TrailingZeros64(w)
			w >>= z
			at += int64(z)
			ones := bits.TrailingZeros64(^w)
			if seq := s.bitBase + at; n > 0 && start+int64(n) == seq {
				n += ones
			} else {
				if n > 0 {
					f(start, n)
				}
				start, n = seq, ones
			}
			w >>= ones
			at += int64(ones)
		}
		lo += m
	}
	if n > 0 {
		f(start, n)
	}
}

// abandon gives up on group gi's live segments: it files their sequence
// numbers in the abandoned record with one search and one block insert
// (live and abandoned numbers are disjoint, so the record holds none of
// the group's) and clears their live bits.
func (s *source) abandon(gi int) {
	g := &s.groups[gi]
	first, end := g.first, s.end(gi)
	i := sort.Search(len(s.abandoned), func(i int) bool { return s.abandoned[i] >= first })
	n := len(s.abandoned)
	s.abandoned = slices.Grow(s.abandoned, int(g.live))[:n+int(g.live)]
	copy(s.abandoned[i+int(g.live):], s.abandoned[i:n])
	s.liveRuns(first, end, func(seq int64, k int) {
		for j := range k {
			s.abandoned[i+j] = seq + int64(j)
		}
		i += k
	})
	s.killRange(first, end)
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
// bit-identical promise rests on. A group's live segments time out
// together; each stretch of consecutive ones leaves as one run, found a
// bitmap word at a time.
func (s *source) expire(now float64, alive bool, emit func(segRun)) (retransmits, abandoned int) {
	next := math.Inf(1)
	for gi := s.head; gi < len(s.groups); gi++ {
		g := &s.groups[gi]
		if g.live == 0 {
			continue
		}
		if now < g.deadline {
			next = min(next, g.deadline)
			continue
		}
		if int(g.attempts) >= s.cfg.MaxAttempts {
			s.abandon(gi)
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
			s.liveRuns(g.first, s.end(gi), func(seq int64, n int) {
				emit(segRun{segment{flow: s.node, seq: seq, bits: s.segmentBits, born: g.born}, n})
			})
		}
		next = min(next, g.deadline)
	}
	s.nextDeadline = next
	s.trim()
	return retransmits, abandoned
}

// flows is a run's set of sources, visited only on the steps they are due:
// the gen and exp calendars file each source by index at the step it next
// emits and the step its earliest timer comes due, so a step costs its
// emissions and timeouts, not the source count. A step takes its due
// sources in ascending index, so emissions and retransmissions reach the
// link queues in source order.
type flows struct {
	*flowParams
	src []source
	// index maps a source's node ID to its position in src; g is the run's
	// graph, whose node Up flags say which sources are live.
	index []int32
	g     *Graph
	// inc is a live source's credit per step, rate × dt; steps is the
	// run's last step and dt its length.
	inc   float64
	dt    float64
	steps int
	gen   calendar
	exp   calendar
	due   []int // the reused take buffer
	// lastCredit, lastWait and lastSum memoise emitWait and the sum it
	// waits for: every source of a run shares the rate, step and segment
	// size, so both depend only on the credit, and a source that emits
	// whole segments restarts from the same credit each time.
	lastCredit, lastSum float64
	lastWait            int
}

// newFlows sets up a source on every node of ids, with g's node table
// giving their liveness, for a run of steps steps of dt seconds.
func newFlows(g *Graph, ids []int, p *flowParams, dt float64, steps int) *flows {
	f := &flows{
		flowParams: p,
		src:        make([]source, len(ids)),
		index:      make([]int32, len(g.nodes)),
		g:          g,
		inc:        float64(p.rateBps * dt), // rounded: no target fuses it into the sums
		dt:         dt,
		steps:      steps,
		gen:        *newCalendar(len(ids), steps),
		exp:        *newCalendar(len(ids), steps),
	}
	for i, id := range ids {
		f.src[i] = newSource(id, p)
		f.index[id] = int32(i)
		f.scheduleGen(i)
	}
	return f
}

// of returns the source of node id.
func (f *flows) of(id int) *source { return &f.src[f.index[id]] }

// flip settles the credit of node id's source, whose satellite failed or
// recovered in step's fault update: it accrues through step−1 at the old
// liveness (nothing while down), and the emission is rescheduled for the
// new one.
func (f *flows) flip(id, step int) {
	i := int(f.index[id])
	s := &f.src[i]
	if !f.g.nodes[id].Up {
		s.credit = obs.AddN(s.credit, f.inc, step-1-s.settled)
	}
	s.settled = step - 1
	f.scheduleGen(i)
}

// generate emits the segments of every source due at step: its credit is
// brought up through step, adding inc once a step as obs.AddN sums, and its
// whole segments leave as one run. A due source has waited emitWait(credit)
// steps since settled, so the credit and its sum are a memo entry.
func (f *flows) generate(step int, now float64, emit func(segRun)) {
	for _, i := range f.gen.take(step, &f.due) {
		s := &f.src[i]
		if k := step - s.settled; s.credit != f.lastCredit || k != f.lastWait {
			f.lastCredit, f.lastWait, f.lastSum = s.credit, k, obs.AddN(s.credit, f.inc, k)
		}
		s.credit, s.settled, s.genAt = f.lastSum, step, 0
		s.release(now, emit)
		f.scheduleGen(i)
		f.scheduleExp(i, step)
	}
}

// expire runs the timers of every source with a deadline due at step and
// returns the retransmission and abandonment counts.
func (f *flows) expire(step int, now float64, emit func(segRun)) (retransmits, abandoned int) {
	for _, i := range f.exp.take(step, &f.due) {
		s := &f.src[i]
		s.expAt = 0
		r, a := s.expire(now, f.g.nodes[s.node].Up, emit)
		retransmits += r
		abandoned += a
		f.scheduleExp(i, step+1)
	}
	return retransmits, abandoned
}

// scheduleGen files source i's next emission: the first step after
// settled whose accrual brings the credit to a whole segment, or none
// while its satellite is down.
func (f *flows) scheduleGen(i int) {
	s := &f.src[i]
	at := 0
	if k := f.emitWait(s.credit, f.steps-s.settled); k > 0 && f.g.nodes[s.node].Up {
		at = s.settled + k
	}
	f.gen.file(i, s.genAt, at)
	s.genAt = at
}

// scheduleExp files source i's timer walk at the first step, no earlier
// than earliest, whose time reaches nextDeadline.
func (f *flows) scheduleExp(i, earliest int) {
	s := &f.src[i]
	if at := dueStep(s.nextDeadline, f.dt, earliest, f.steps); at != s.expAt {
		f.exp.file(i, s.expAt, at)
		s.expAt = at
	}
}

// emitWait returns the first k in [1, limit] at which k additions of inc
// bring credit c, below one segment, to a whole segment or more, or 0 if
// none does. The memo's search runs to the run's last step, so it holds
// for any limit.
func (f *flows) emitWait(c float64, limit int) int {
	k := 1
	if f.inc < f.segmentBits {
		if c != f.lastCredit || f.lastWait == 0 {
			f.lastCredit, f.lastWait = c, 1+sort.Search(f.steps, func(j int) bool { return obs.AddN(c, f.inc, j+1) >= f.segmentBits })
			f.lastSum = obs.AddN(c, f.inc, f.lastWait)
		}
		k = f.lastWait
	}
	if k > limit {
		return 0
	}
	return k
}
