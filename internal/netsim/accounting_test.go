package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"spacedc/internal/obs"
)

// The per-segment engine's generate, Graph.enqueue, Link.serve and ackRun,
// verbatim: one float operation or bitmap probe per segment. They are the
// oracles the closed forms must match bit for bit. Each costs
// O(segments), so the tests that run them keep per-step segment counts
// small. refExpire and refNoteAbandoned are the timer walk that probes the
// bitmap and files abandoned segments one sequence number at a time, with
// isLive and kill as its probes. refGenerate and then refExpire on every
// source every step is the per-step walk the flows set must reproduce.
// refGenerate rounds rate × dt before adding it, as flows does, so no
// target fuses the two into one FMA; on plain amd64, which never fuses,
// that is the per-step engine's body as it ran.

func (s *source) refGenerate(now, dt float64, alive bool, emit func(segRun)) int {
	if !alive {
		return 0
	}
	s.credit += float64(s.rateBps * dt)
	n := 0
	for s.credit >= s.segmentBits {
		s.credit -= s.segmentBits
		n++
	}
	if n > 0 {
		first := s.seq + 1
		s.seq += int64(n)
		s.open(first, n, now, now+s.cfg.RTOSec)
		emit(segRun{segment{flow: s.node, seq: first, bits: s.segmentBits, born: now}, n})
	}
	return n
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

func (s *source) refNoteAbandoned(seq int64) {
	i := sort.Search(len(s.abandoned), func(i int) bool { return s.abandoned[i] >= seq })
	s.abandoned = append(s.abandoned, 0)
	copy(s.abandoned[i+1:], s.abandoned[i:])
	s.abandoned[i] = seq
}

func (s *source) refExpire(now float64, alive bool, emit func(segRun)) (retransmits, abandoned int) {
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
					s.refNoteAbandoned(seq)
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

func (g *Graph) refEnqueue(li int, run segRun, measure bool) {
	l := g.Links[li]
	admitted := 0
	for admitted < run.n && !(l.qBits+run.bits > l.QueueLimitBits) {
		l.qBits += run.bits
		admitted++
	}
	if measure {
		l.drops += run.n - admitted
	}
	if admitted > 0 {
		run.n = admitted
		l.q = append(l.q, run)
		g.markBusy(li)
	}
}

func (l *Link) refServe(now, dt float64, measure bool, deliver func(run segRun, to int, due float64)) float64 {
	budget := l.CapacityBps * dt
	served := 0.0
	popped := 0
	for budget > 0 && popped < len(l.q) {
		head := &l.q[popped]
		done := 0
		for done < head.n && budget > 0 {
			need := head.bits - l.headDone
			if need > budget {
				l.headDone += budget
				served += budget
				budget = 0
				break
			}
			budget -= need
			served += need
			done++
			l.qBits -= head.bits
			if l.qBits < 0 {
				l.qBits = 0
			}
			l.headDone = 0
			if measure {
				l.sentBits += head.bits
			}
		}
		if done > 0 {
			deliver(segRun{head.segment, done}, l.To, now+l.DelaySec)
			head.seq += int64(done)
			head.n -= done
		}
		if head.n > 0 {
			break
		}
		popped++
	}
	if popped > 0 {
		l.q = l.q[:copy(l.q, l.q[popped:])]
	}
	return served
}

func (s *source) refAckRun(run segRun) (delivered, late, dups int) {
	gi := -1
	for k := 0; k < run.n; k++ {
		seq := run.seq + int64(k)
		switch {
		case s.isLive(seq):
			if gi < 0 || seq >= s.end(gi) {
				gi = s.group(seq)
			}
			s.kill(seq)
			s.groups[gi].live--
			delivered++
		case s.refDropAbandoned(seq):
			late++
		default:
			dups++
		}
	}
	if delivered > 0 {
		s.trim()
	}
	return delivered, late, dups
}

func (s *source) refDropAbandoned(seq int64) bool {
	i := sort.Search(len(s.abandoned), func(i int) bool { return s.abandoned[i] >= seq })
	if i >= len(s.abandoned) || s.abandoned[i] != seq {
		return false
	}
	s.abandoned = append(s.abandoned[:i], s.abandoned[i+1:]...)
	return true
}

// arrivalRec is one run a link handed on, as serve reports it.
type arrivalRec struct {
	run segRun
	to  int
	due float64
}

// sourcePair drives the same sources two ways: a flows set, which visits
// a source only on the steps it emits or has a timer due, and the walk it
// replaced, refGenerate and then refExpire on every source every step.
// Sources are nodes 0..n−1 of g, whose Up flags give their liveness.
type sourcePair struct {
	g   *Graph
	fl  *flows
	ref []source
	dt  float64
}

func newSourcePair(n int, p flowParams, dt float64, steps int) *sourcePair {
	sp := &sourcePair{g: newGraph(n + 1), ref: make([]source, n), dt: dt}
	ids := make([]int, n)
	refParams := p
	for i := range ids {
		ids[i] = i
		sp.ref[i] = newSource(i, &refParams)
	}
	sp.fl = newFlows(sp.g, ids, &p, dt, steps)
	return sp
}

// step sets the sources' liveness for step, flipping the flows set's
// sources as the fault layer would, then runs the step's generation and
// timers on both sides. It fails t unless both emit the same runs in the
// same order with the same counts, and returns the runs.
func (sp *sourcePair) step(t *testing.T, step int, alive []bool) []segRun {
	t.Helper()
	now := float64(step) * sp.dt
	for i, up := range alive {
		if sp.g.nodes[i].Up != up {
			sp.g.nodes[i].Up = up
			sp.fl.flip(i, step)
		}
	}
	var runs, refRuns []segRun
	offered, refOffered := 0, 0
	sp.fl.generate(step, now, func(r segRun) {
		runs = append(runs, r)
		offered += r.n
	})
	retx, aband := sp.fl.expire(step, now, func(r segRun) { runs = append(runs, r) })
	refEmit := func(r segRun) { refRuns = append(refRuns, r) }
	for i := range sp.ref {
		refOffered += sp.ref[i].refGenerate(now, sp.dt, alive[i], refEmit)
	}
	refRetx, refAband := 0, 0
	for i := range sp.ref {
		r, a := sp.ref[i].refExpire(now, alive[i], refEmit)
		refRetx += r
		refAband += a
	}
	if offered != refOffered || retx != refRetx || aband != refAband || !reflect.DeepEqual(runs, refRuns) {
		t.Fatalf("step %d: offered/retransmitted/abandoned %d/%d/%d as %+v, walk %d/%d/%d as %+v",
			step, offered, retx, aband, runs, refOffered, refRetx, refAband, refRuns)
	}
	return runs
}

// ack acks run on both sides and fails t unless the counts match.
func (sp *sourcePair) ack(t *testing.T, step int, run segRun) {
	t.Helper()
	d1, l1, u1 := sp.fl.of(run.flow).ackRun(run)
	d2, l2, u2 := sp.ref[run.flow].refAckRun(run)
	if d1 != d2 || l1 != l2 || u1 != u2 {
		t.Fatalf("step %d: ack %+v counted %d/%d/%d, walk %d/%d/%d", step, run, d1, l1, u1, d2, l2, u2)
	}
}

// check fails t unless every source's window matches the walk's and its
// credit, brought up through step, matches by bits.
func (sp *sourcePair) check(t *testing.T, step int) {
	t.Helper()
	for i := range sp.ref {
		s, r := sp.fl.src[i], sp.ref[i]
		credit := s.credit
		if sp.g.nodes[i].Up {
			credit = obs.AddN(credit, sp.fl.inc, step-s.settled)
		}
		s.credit, s.settled, s.genAt, s.expAt = r.credit, 0, 0, 0
		if !sameBits(credit, r.credit) || !reflect.DeepEqual(s, r) {
			t.Fatalf("step %d: source %d diverged:\nscheduled %+v (credit %v)\nwalk      %+v", step, i, s, credit, r)
		}
	}
}

// accountingPair runs the closed forms and the per-segment oracles side
// by side on identical state: three sources feeding one link into a sink.
type accountingPair struct {
	src    *sourcePair
	g, ref *Graph
}

// sameBits compares floats by bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// check fails t unless both sides hold the same state, floats compared by
// bits.
func (p *accountingPair) check(t *testing.T, step int) {
	t.Helper()
	p.src.check(t, step)
	l, r := p.g.Links[0], p.ref.Links[0]
	if !sameBits(l.qBits, r.qBits) || !sameBits(l.headDone, r.headDone) || !sameBits(l.sentBits, r.sentBits) ||
		!reflect.DeepEqual(*l, *r) {
		t.Fatalf("step %d: link diverged:\nclosed form %+v\nper segment %+v", step, *l, *r)
	}
}

// runAccounting drives both sides through steps of generation (sometimes
// with the satellites down), timeouts, queue admission under the limit,
// link service and acks, plus acks of random sequence ranges that mix
// live, abandoned, duplicate and not-yet-sent segments, checking every
// count and every float by bits after each phase.
func runAccounting(t *testing.T, seed int64, segBits, ratePerStep, capPerStep, dt, queueSteps float64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := TransportConfig{RTOSec: dt * float64(1+rng.Intn(6)), Backoff: 1 + rng.Float64(), MaxAttempts: 1 + rng.Intn(3)}
	const steps = 60
	p := &accountingPair{
		src: newSourcePair(3, flowParams{rateBps: ratePerStep * segBits / dt, segmentBits: segBits, cfg: cfg}, dt, steps),
		g:   newGraph(4), ref: newGraph(4),
	}
	// A range-derated capacity, as on inter-shell links.
	capBps := capPerStep * segBits / dt * interShellRefKm / (interShellRefKm + 2000*rng.Float64())
	sent := 0.0
	if rng.Intn(3) == 0 {
		// A run-long counter already past 2^53, where additions round.
		sent = math.Ldexp(1+rng.Float64(), 53+rng.Intn(8))
	}
	for _, g := range []*Graph{p.g, p.ref} {
		g.addLink(0, 3, capBps, 0.01, queueSteps*capBps*dt).sentBits = sent
	}

	var got, want []arrivalRec
	alive := make([]bool, 3)
	for step := 1; step <= steps; step++ {
		now := float64(step) * dt
		measure := rng.Intn(4) != 0
		up := rng.Intn(8) != 0
		for i := range alive {
			alive[i] = up
		}
		runs := p.src.step(t, step, alive)
		for _, r := range runs {
			p.g.enqueue(0, r, measure)
			p.ref.refEnqueue(0, r, measure)
		}
		p.check(t, step)

		got, want = got[:0], want[:0]
		served := p.g.Links[0].serve(now, dt, measure, func(r segRun, to int, due float64) {
			got = append(got, arrivalRec{r, to, due})
		})
		refServed := p.ref.Links[0].refServe(now, dt, measure, func(r segRun, to int, due float64) {
			want = append(want, arrivalRec{r, to, due})
		})
		if !sameBits(served, refServed) || !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d: served %v bits as %+v, per segment %v as %+v", step, served, got, refServed, want)
		}
		p.check(t, step)

		// Deliveries (dropped now and then, so timeouts retransmit and
		// abandon), then a random range that may cover anything.
		acks := got
		for i := 0; i < 2; i++ {
			s := &p.src.ref[rng.Intn(len(p.src.ref))]
			lo := 1 + rng.Int63n(s.seq+2)
			acks = append(acks, arrivalRec{run: segRun{segment{flow: s.node, seq: lo}, 1 + rng.Intn(int(2*ratePerStep)+3)}})
		}
		for _, a := range acks {
			if rng.Intn(5) == 0 {
				continue
			}
			p.src.ack(t, step, a.run)
		}
		p.check(t, step)
	}
}

// FuzzSegmentAccounting checks the flows set's emissions and timers,
// Graph.enqueue, Link.serve and ackRun against the per-segment engine's
// bodies: whole-bit segment sizes
// from one bit to 2^24, fractional per-step rates and capacities (derated
// by a random inter-shell range, so a step budget is rarely whole), step
// sizes, queue limits that force drops, satellite outages, and ack
// patterns mixing live, abandoned and duplicate segments. Credit, qBits,
// headDone, served and sentBits must match by bits, and drops, delivered
// runs and ack counts exactly. The arguments are folded into ranges where
// the per-segment oracles stay cheap: at most about 2,000 segments a step.
func FuzzSegmentAccounting(f *testing.F) {
	f.Add(int64(1), uint32(1e6-1), 15.0, 12.0, 0.1, 1.0)   // saturated: drops, whole budgets
	f.Add(int64(2), uint32(1e7-1), 0.8, 0.37, 0.2, 4.0)    // segments wider than a step budget
	f.Add(int64(3), uint32(0), 300.0, 250.5, 0.05, 0.5)    // one-bit segments
	f.Add(int64(4), uint32(12345), 7.25, 9.75, 1.3, 2.0)   // fractional rate, under capacity
	f.Add(int64(5), uint32(1<<24-1), 40.0, 3.3, 0.7, 10.0) // deep queue, long retransmits
	f.Fuzz(func(t *testing.T, seed int64, segBits uint32, rate, capacity, dt, queue float64) {
		fold := func(x, lim float64) float64 {
			if x = math.Abs(x); !(x < math.MaxFloat64) {
				return lim / 2
			}
			return math.Mod(x, lim)
		}
		runAccounting(t, seed, float64(1+segBits%(1<<24)),
			fold(rate, 400), fold(capacity, 400), 0.01+fold(dt, 5), fold(queue, 12))
	})
}

// runSchedule drives several sources through a run of steps with their own
// failure and recovery patterns, delivering each emitted run after a
// random delay, dropping or repeating some, and checks the flows set
// against the per-step walk after every step and at the end.
func runSchedule(t *testing.T, seed int64, segBits, ratePerStep, dt float64, flipOdds int) {
	rng := rand.New(rand.NewSource(seed))
	cfg := TransportConfig{
		RTOSec:      dt * (0.3 + 8*rng.Float64()),
		Backoff:     1 + 2*rng.Float64(),
		MaxAttempts: 1 + rng.Intn(4),
	}
	if rng.Intn(8) == 0 {
		// An RTO below half an ulp of the clock: a deadline equal to its
		// step's time, due on the step that set it.
		cfg.RTOSec = dt * 1e-17
	}
	n := 1 + rng.Intn(6)
	steps := 20 + rng.Intn(400)
	sp := newSourcePair(n, flowParams{rateBps: ratePerStep * segBits / dt, segmentBits: segBits, cfg: cfg}, dt, steps)

	type flight struct {
		due int
		run segRun
	}
	var inflight []flight
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	for step := 1; step <= steps; step++ {
		for i := range alive {
			if rng.Intn(flipOdds) == 0 {
				alive[i] = !alive[i]
			}
		}
		kept := inflight[:0]
		for _, f := range inflight {
			if f.due > step {
				kept = append(kept, f)
				continue
			}
			if rng.Intn(5) != 0 {
				sp.ack(t, step, f.run)
			}
			if rng.Intn(10) == 0 {
				sp.ack(t, step, f.run)
			}
		}
		inflight = kept
		for _, r := range sp.step(t, step, alive) {
			inflight = append(inflight, flight{step + 1 + rng.Intn(12), r})
		}
		sp.check(t, step)
	}
}

// FuzzSourceSchedule checks the flows set, which visits a source only on
// the steps it emits or has a timer due, against the walk over every
// source every step that it replaced: up to six sources failing and
// recovering on their own, rates from one segment per few hundred steps
// to several a step with fractional per-step credit, whole-bit segment
// sizes, RTOs that are not a whole number of steps (or vanish against the
// clock), backoffs and attempt budgets. Emitted runs in order, offered,
// retransmitted and abandoned counts, every window and every credit must
// match by bits after every step.
func FuzzSourceSchedule(f *testing.F) {
	f.Add(int64(1), uint32(1e6-1), 0.01, 0.1, uint8(40))     // one segment per 100 steps
	f.Add(int64(2), uint32(1234566), 0.187, 0.07, uint8(6))  // fractional credit, frequent flips
	f.Add(int64(3), uint32(0), 3.5, 1.0, uint8(3))           // one-bit segments, several a step
	f.Add(int64(4), uint32(1<<24-1), 0.0031, 2.3, uint8(90)) // hundreds of steps a segment
	f.Add(int64(5), uint32(999), 1.0, 0.5, uint8(12))        // exactly one segment a step
	f.Fuzz(func(t *testing.T, seed int64, segBits uint32, rate, dt float64, flipOdds uint8) {
		fold := func(x, lim float64) float64 {
			if x = math.Abs(x); !(x < math.MaxFloat64) {
				return lim / 2
			}
			return math.Mod(x, lim)
		}
		runSchedule(t, seed, float64(1+segBits%(1<<24)), fold(rate, 12), 0.01+fold(dt, 5), 2+int(flipOdds)%100)
	})
}
