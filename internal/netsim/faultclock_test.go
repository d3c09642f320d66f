package netsim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"spacedc/internal/isl"
)

// refFaultState is the fault layer the step calendar replaced: the link and
// satellite clocks in binary heaps keyed by due time, popped with every
// clock at or before the step's time and then sorted by ID. Its heap,
// seeding and update bodies are the replaced code, kept as the oracle that
// FuzzFaultClocks checks faultState against. The eclipse sweep is shared.
type refFaultState struct {
	*faultState
	linkClock flipHeap
	nodeClock flipHeap
	due       []int
}

// flipEntry is one clock in a flipHeap: an ID and the time it is next
// due.
type flipEntry struct {
	t  float64
	id int
}

// flipHeap is a binary min-heap of clocks ordered by due time (ties by
// ID, for a deterministic pop order): the fault processes' transitions,
// and the sources' emissions and timers by step.
type flipHeap []flipEntry

func (h flipHeap) less(i, j int) bool {
	return h[i].t < h[j].t || (h[i].t == h[j].t && h[i].id < h[j].id)
}

// push inserts a clock.
func (h *flipHeap) push(e flipEntry) {
	*h = append(*h, e)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
}

// popDue appends to due the ID of every clock with a transition at or
// before now, removing those clocks from the heap.
func (h *flipHeap) popDue(now float64, due []int) []int {
	q := *h
	for len(q) > 0 && q[0].t <= now {
		due = append(due, q[0].id)
		n := len(q) - 1
		q[0] = q[n]
		q = q[:n]
		for i := 0; ; {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q.less(c+1, c) {
				c++
			}
			if !q.less(c, i) {
				break
			}
			q[i], q[c] = q[c], q[i]
			i = c
		}
	}
	*h = q
	return due
}

// refNewFaultState seeds the processes over g as newFaultState did before
// the calendar: the eclipse arcs from newFaultState with the clocks off,
// then every link, then every satellite, drawing its first transition time
// into the heaps from the stream newFaultStream builds from seed, as the
// engine does.
func refNewFaultState(cfg FaultConfig, ts TopologySpec, g *Graph, seed int64) *refFaultState {
	rng := newFaultStream(seed)
	fs := &refFaultState{faultState: newFaultState(FaultConfig{EclipseOutage: cfg.EclipseOutage}, ts, g, 0, 1, 0)}
	fs.cfg, fs.rng = cfg, rng
	if cfg.LinkOutage > 0 {
		mtbf := cfg.linkMTBF()
		fs.linkClock = make(flipHeap, 0, len(g.Links))
		for _, l := range g.Links {
			l.nextFlip = expSample(rng, mtbf)
			fs.linkClock.push(flipEntry{t: l.nextFlip, id: l.ID})
		}
	}
	if cfg.SatMTBFSec > 0 {
		fs.nodeClock = make(flipHeap, 0, len(g.Sources))
		for _, s := range g.Sources {
			n := &g.nodes[s]
			n.nextFlip = expSample(rng, cfg.SatMTBFSec)
			fs.nodeClock.push(flipEntry{t: n.nextFlip, id: s})
		}
	}
	return fs
}

// refUpdate is faultState.update as it ran on the heaps, at time t.
func (fs *refFaultState) refUpdate(t float64, g *Graph, measure bool) bool {
	changed := false
	fs.flipped = fs.flipped[:0]
	if fs.cfg.LinkOutage > 0 {
		fs.due = fs.linkClock.popDue(t, fs.due[:0])
		sort.Ints(fs.due)
		mtbf := fs.cfg.linkMTBF()
		for _, id := range fs.due {
			l := g.Links[id]
			g.noteLink(id)
			for t >= l.nextFlip {
				l.Up = !l.Up
				fs.Events++
				changed = true
				if l.Up {
					l.nextFlip += expSample(fs.rng, mtbf)
				} else {
					l.nextFlip += expSample(fs.rng, fs.cfg.LinkMTTRSec)
				}
			}
			fs.linkClock.push(flipEntry{t: l.nextFlip, id: id})
		}
	}
	if fs.cfg.SatMTBFSec > 0 {
		fs.due = fs.nodeClock.popDue(t, fs.due[:0])
		sort.Ints(fs.due)
		for _, s := range fs.due {
			n := &g.nodes[s]
			g.noteNode(s)
			wasUp := n.Up
			for t >= n.nextFlip {
				n.Up = !n.Up
				fs.Events++
				changed = true
				if n.Up {
					n.nextFlip += expSample(fs.rng, fs.cfg.SatMTBFSec)
				} else {
					n.nextFlip += expSample(fs.rng, fs.cfg.SatMTTRSec)
					for _, li := range g.out[s] {
						g.Links[li].clearQueue(measure)
					}
				}
			}
			if n.Up != wasUp {
				fs.flipped = append(fs.flipped, s)
			}
			fs.nodeClock.push(flipEntry{t: n.nextFlip, id: s})
		}
	}
	if len(fs.arcs) > 0 {
		changed = fs.updateEclipse(t, g) || changed
	}
	return changed
}

// clockSpec draws one of four fault-clock topologies from rng: a ring, a
// k-list with split sinks, a GEO star, or a two-shell stack.
func clockSpec(rng *rand.Rand, shape uint8) TopologySpec {
	tech := isl.RFKaBand
	if rng.Intn(2) == 0 {
		tech = isl.Optical10G
	}
	switch shape % 4 {
	case 0:
		return TopologySpec{Kind: ClusterTopology, Sats: 2 + rng.Intn(30), Cluster: isl.Ring, Tech: tech}
	case 1:
		return TopologySpec{Kind: ClusterTopology, Sats: 8 + rng.Intn(40), Cluster: isl.Topology{K: 4, Split: 2}, Tech: tech}
	case 2:
		return TopologySpec{Kind: GEOStarTopology, Sats: 1 + rng.Intn(20), GEOSinks: 1 + rng.Intn(3), Tech: tech}
	}
	ts := twoShellSpec(InterShellKind(rng.Intn(2)))
	ts.Tech = tech
	return ts
}

// clockMean draws a mean holding time for a run of steps steps of dt: below
// one step (so a clock flips several times in a step), within the run, or
// past its last step.
func clockMean(rng *rand.Rand, dt float64, steps int) float64 {
	switch rng.Intn(3) {
	case 0:
		return dt * (0.05 + 0.9*rng.Float64())
	case 1:
		return dt * (1 + float64(steps)*rng.Float64())
	}
	return dt * float64(steps) * (1 + 10*rng.Float64())
}

// FuzzFaultClocks steps the calendar-filed fault clocks and the heap-driven
// oracle side by side on twin graphs (ring, k-list, GEO star, two-shell
// stack) under random valid regimes: outage fractions from 0 to 0.9, mean
// repair and failure times from a twentieth of a step to ten runs long, with
// or without the eclipse sweep, at step lengths that divide none of the
// draws and step counts up to 300. After every step the returned change,
// the event count, the flipped satellites, the pending batch and every
// link's and node's Up flag and fault clock must match, clocks by bits.
func FuzzFaultClocks(f *testing.F) {
	f.Add(int64(1), uint8(0), 0.1, uint16(300))  // a ring at the mega-storm step
	f.Add(int64(2), uint8(1), 0.7, uint16(200))  // a k-list at a coarse step
	f.Add(int64(3), uint8(2), 3.0, uint16(100))  // a GEO star
	f.Add(int64(4), uint8(3), 0.37, uint16(250)) // a two-shell stack
	f.Add(int64(5), uint8(0), 30.0, uint16(4))   // a few long steps
	f.Fuzz(func(t *testing.T, seed int64, shape uint8, dt float64, steps uint16) {
		if dt = math.Abs(dt); !(dt < math.MaxFloat64) {
			dt = 1
		}
		dt = 0.01 + math.Mod(dt, 100)
		n := 1 + int(steps%300)
		rng := rand.New(rand.NewSource(seed))
		ts := clockSpec(rng, shape)
		cfg := FaultConfig{EclipseOutage: rng.Intn(3) == 0}
		if rng.Intn(4) != 0 {
			cfg.LinkOutage = 0.9 * rng.Float64()
			cfg.LinkMTTRSec = clockMean(rng, dt, n)
		}
		if rng.Intn(4) != 0 {
			cfg.SatMTBFSec = clockMean(rng, dt, n)
			cfg.SatMTTRSec = clockMean(rng, dt, n)
		}
		cfg = cfg.withDefaults()
		if err := cfg.Validate(); err != nil {
			t.Fatalf("regime %+v: %v", cfg, err)
		}
		g, err := BuildGraph(ts)
		if err != nil {
			t.Fatalf("spec %+v: %v", ts, err)
		}
		ref, err := BuildGraph(ts)
		if err != nil {
			t.Fatal(err)
		}
		fs := newFaultState(cfg, ts, g, seed, dt, n)
		rfs := refNewFaultState(cfg, ts, ref, seed)
		for step := 1; step <= n; step++ {
			now := float64(step) * dt
			measure := rng.Intn(4) != 0
			changed := fs.update(step, g, measure)
			refChanged := rfs.refUpdate(now, ref, measure)
			if changed != refChanged || fs.Events != rfs.Events || !slices.Equal(fs.flipped, rfs.flipped) ||
				!slices.Equal(g.notedIDs, ref.notedIDs) || !slices.Equal(g.notedWas, ref.notedWas) {
				t.Fatalf("step %d (t=%v) of %+v: changed %v, %d events, flipped %v, noted %v; heap %v, %d, %v, %v",
					step, now, cfg, changed, fs.Events, fs.flipped, g.notedIDs, refChanged, rfs.Events, rfs.flipped, ref.notedIDs)
			}
			for i, l := range g.Links {
				if r := ref.Links[i]; l.Up != r.Up || !sameBits(l.nextFlip, r.nextFlip) {
					t.Fatalf("step %d (t=%v): link %d up %v clock %v; heap %v, %v", step, now, i, l.Up, l.nextFlip, r.Up, r.nextFlip)
				}
			}
			for i, nd := range g.nodes {
				if r := ref.nodes[i]; nd.Up != r.Up || nd.eclipsed != r.eclipsed || !sameBits(nd.nextFlip, r.nextFlip) {
					t.Fatalf("step %d (t=%v): node %d %+v; heap %+v", step, now, i, nd, r)
				}
			}
			g.clearPending()
			ref.clearPending()
		}
	})
}

// TestDueStep checks dueStep against a scan of the steps from the lower
// bound up: at times on a step boundary and one ulp either side of it, at
// 0, between steps, past the last step, at +Inf and at NaN.
func TestDueStep(t *testing.T) {
	scan := func(at, dt float64, from, steps int) int {
		for k := from; k <= steps; k++ {
			if float64(k)*dt >= at {
				return k
			}
		}
		return 0
	}
	rng := rand.New(rand.NewSource(1))
	for _, dt := range []float64{0.1, 0.3, 1.0 / 3, 0.5, 7, 1e-3, 123.456, 1e5} {
		for _, steps := range []int{1, 2, 7, 600, 6000} {
			times := []float64{0, math.Inf(1), math.NaN(), float64(steps+1) * dt, 2 * float64(steps) * dt}
			for k := 0; k <= steps+1; k += 1 + k/10 {
				on := float64(k) * dt
				times = append(times, on, math.Nextafter(on, math.Inf(-1)), math.Nextafter(on, math.Inf(1)),
					(float64(k)+rng.Float64())*dt)
			}
			for _, at := range times {
				for _, from := range []int{1, 2, steps / 2, steps, steps + 1} {
					if from < 1 {
						continue
					}
					if got, want := dueStep(at, dt, from, steps), scan(at, dt, from, steps); got != want {
						t.Errorf("dueStep(%v, %v, %d, %d) = %d, scan %d", at, dt, from, steps, got, want)
					}
				}
			}
		}
	}
}
