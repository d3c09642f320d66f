package netsim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// The per-segment engine's generate, Graph.enqueue, Link.serve and ackRun,
// verbatim: one float operation or bitmap probe per segment. They are the
// oracles the closed forms must match bit for bit. Each costs
// O(segments), so the tests that run them keep per-step segment counts
// small.

func (s *source) refGenerate(now, dt float64, alive bool, emit func(segRun)) int {
	if !alive {
		return 0
	}
	s.credit += s.rateBps * dt
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

// accountingPair runs the closed forms and the per-segment oracles side
// by side on identical state: three sources feeding one link into a sink.
type accountingPair struct {
	srcs, refSrcs [3]source
	g, refG       *Graph
}

// sameBits compares floats by bits.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// check fails t unless both sides hold the same state, floats compared by
// bits.
func (p *accountingPair) check(t *testing.T, step int) {
	t.Helper()
	for i := range p.srcs {
		s, r := &p.srcs[i], &p.refSrcs[i]
		if !sameBits(s.credit, r.credit) || !reflect.DeepEqual(*s, *r) {
			t.Fatalf("step %d: source %d diverged:\nclosed form %+v\nper segment %+v", step, i, *s, *r)
		}
	}
	l, r := p.g.Links[0], p.refG.Links[0]
	if !sameBits(l.qBits, r.qBits) || !sameBits(l.headDone, r.headDone) || !sameBits(l.sentBits, r.sentBits) ||
		!reflect.DeepEqual(*l, *r) {
		t.Fatalf("step %d: link diverged:\nclosed form %+v\nper segment %+v", step, *l, *r)
	}
}

// runAccounting drives both sides through steps of generation (sometimes
// with the satellite down), timeouts, queue admission under the limit,
// link service and acks, plus acks of random sequence ranges that mix
// live, abandoned, duplicate and not-yet-sent segments, checking every
// count and every float by bits after each phase.
func runAccounting(t *testing.T, seed int64, segBits, ratePerStep, capPerStep, dt, queueSteps float64) {
	rng := rand.New(rand.NewSource(seed))
	cfg := TransportConfig{RTOSec: dt * float64(1+rng.Intn(6)), Backoff: 1 + rng.Float64(), MaxAttempts: 1 + rng.Intn(3)}
	params := &flowParams{rateBps: ratePerStep * segBits / dt, segmentBits: segBits, cfg: cfg}
	refParams := *params
	// A range-derated capacity, as on inter-shell links.
	capBps := capPerStep * segBits / dt * interShellRefKm / (interShellRefKm + 2000*rng.Float64())
	sent := 0.0
	if rng.Intn(3) == 0 {
		// A run-long counter already past 2^53, where additions round.
		sent = math.Ldexp(1+rng.Float64(), 53+rng.Intn(8))
	}
	p := &accountingPair{g: newGraph(4), refG: newGraph(4)}
	for _, g := range []*Graph{p.g, p.refG} {
		g.addLink(0, 3, capBps, 0.01, queueSteps*capBps*dt).sentBits = sent
	}
	for i := range p.srcs {
		p.srcs[i] = newSource(i, params)
		p.refSrcs[i] = newSource(i, &refParams)
	}

	var got, want []arrivalRec
	for step := 1; step <= 60; step++ {
		now := float64(step) * dt
		measure := rng.Intn(4) != 0
		alive := rng.Intn(8) != 0
		var runs, refRuns []segRun
		emit := func(r segRun) { runs = append(runs, r) }
		refEmit := func(r segRun) { refRuns = append(refRuns, r) }
		for i := range p.srcs {
			if n, m := p.srcs[i].generate(now, dt, alive, emit), p.refSrcs[i].refGenerate(now, dt, alive, refEmit); n != m {
				t.Fatalf("step %d: source %d generated %d, per segment %d", step, i, n, m)
			}
			a1, b1 := p.srcs[i].expire(now, alive, emit)
			a2, b2 := p.refSrcs[i].expire(now, alive, refEmit)
			if a1 != a2 || b1 != b2 {
				t.Fatalf("step %d: source %d expired %d/%d, per segment %d/%d", step, i, a1, b1, a2, b2)
			}
		}
		if !reflect.DeepEqual(runs, refRuns) {
			t.Fatalf("step %d: emitted %+v, per segment %+v", step, runs, refRuns)
		}
		for k := range runs {
			p.g.enqueue(0, runs[k], measure)
			p.refG.refEnqueue(0, refRuns[k], measure)
		}
		p.check(t, step)

		got, want = got[:0], want[:0]
		served := p.g.Links[0].serve(now, dt, measure, func(r segRun, to int, due float64) {
			got = append(got, arrivalRec{r, to, due})
		})
		refServed := p.refG.Links[0].refServe(now, dt, measure, func(r segRun, to int, due float64) {
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
			s := &p.srcs[rng.Intn(len(p.srcs))]
			lo := 1 + rng.Int63n(s.seq+2)
			acks = append(acks, arrivalRec{run: segRun{segment{flow: s.node, seq: lo}, 1 + rng.Intn(int(2*ratePerStep)+3)}})
		}
		for _, a := range acks {
			if rng.Intn(5) == 0 {
				continue
			}
			d1, l1, u1 := p.srcs[a.run.flow].ackRun(a.run)
			d2, l2, u2 := p.refSrcs[a.run.flow].refAckRun(a.run)
			if d1 != d2 || l1 != l2 || u1 != u2 {
				t.Fatalf("step %d: ack %+v counted %d/%d/%d, per segment %d/%d/%d", step, a.run, d1, l1, u1, d2, l2, u2)
			}
		}
		p.check(t, step)
	}
}

// FuzzSegmentAccounting checks generate, Graph.enqueue, Link.serve and
// ackRun against the per-segment engine's bodies: whole-bit segment sizes
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
