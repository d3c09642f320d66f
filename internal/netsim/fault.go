package netsim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// eclipseEpoch anchors the eclipse geometry near an equinox, matching the
// experiments package's reference epoch.
var eclipseEpoch = time.Date(2026, 3, 20, 0, 0, 0, 0, time.UTC)

// FaultConfig describes the failure regime injected into a run.
type FaultConfig struct {
	// LinkOutage is the stationary fraction of time each directed link is
	// independently down from pointing loss (0 disables the process).
	LinkOutage float64
	// LinkMTTRSec is the mean re-acquisition time after a pointing loss.
	// Zero means 30 s (an optical terminal's reacquisition scale).
	LinkMTTRSec float64
	// SatMTBFSec is the mean time between whole-satellite failures
	// (0 disables them). A failed satellite neither generates nor relays,
	// and its buffered segments are lost.
	SatMTBFSec float64
	// SatMTTRSec is the mean satellite recovery time. Zero means 120 s.
	SatMTTRSec float64
	// EclipseOutage drops optical links while either endpoint satellite
	// is inside the Earth-shadow arc that sweeps the plane once per
	// orbit — the pointing-loss-from-thermal-snap regime. SµDCs in the
	// plane are shadowed too, and a plane's first SµDC sits at phase 0,
	// where the arc starts at t = 0: a one-sink optical plane delivers
	// nothing until the arc has passed it, at the eclipse fraction times
	// the orbital period (2,143 s at 550 km). Runs shorter than that need
	// two SµDCs per plane to measure the fabric rather than the arc.
	EclipseOutage bool
}

// withDefaults fills zero repair times.
func (fc FaultConfig) withDefaults() FaultConfig {
	if fc.LinkMTTRSec == 0 {
		fc.LinkMTTRSec = 30
	}
	if fc.SatMTTRSec == 0 {
		fc.SatMTTRSec = 120
	}
	return fc
}

// Validate checks the regime.
func (fc FaultConfig) Validate() error {
	if fc.LinkOutage < 0 || fc.LinkOutage >= 1 {
		return fmt.Errorf("netsim: link outage fraction %v outside [0,1)", fc.LinkOutage)
	}
	if fc.LinkMTTRSec < 0 || fc.SatMTBFSec < 0 || fc.SatMTTRSec < 0 {
		return fmt.Errorf("netsim: negative MTBF/MTTR")
	}
	return nil
}

// linkMTBF derives the mean up-time that yields the configured stationary
// outage fraction: down/(up+down) = f ⇒ up = MTTR·(1−f)/f.
func (fc FaultConfig) linkMTBF() float64 {
	if fc.LinkOutage <= 0 {
		return math.Inf(1)
	}
	return fc.LinkMTTRSec * (1 - fc.LinkOutage) / fc.LinkOutage
}

// expSample draws an exponential holding time with the given mean.
func expSample(rng *rand.Rand, mean float64) float64 {
	if math.IsInf(mean, 1) {
		return math.Inf(1)
	}
	return rng.ExpFloat64() * mean
}

// faultState runs the MTBF/MTTR processes and the eclipse sweep over a
// graph.
type faultState struct {
	cfg FaultConfig
	rng *rand.Rand
	// eclipse sweep geometry, indexed by shell: the fraction of each
	// shell's plane in shadow and the period of one sweep. Single-shell
	// specs get one entry; specs without an eclipse regime on optical
	// terminals get none.
	eclipseFrac []float64
	periodSec   []float64
	// arcs tracks the shadowed nodes of every shell with a shadow arc, so
	// a step's eclipse sweep costs the nodes that cross the arc's edges
	// and a few binary searches, not a scan of every node.
	arcs []shadowArc
	// arcEdges is the scratch the sweep computes an arc's new edges in.
	arcEdges []int
	// Events counts state transitions (for the run report).
	Events int

	// linkClock and nodeClock index the fault processes by next transition
	// time, so update pops exactly the links and satellites due this step
	// instead of scanning the whole population every step — O(transitions
	// log n) against the old O(links + sats) per step. Due entries are
	// processed in ascending ID order, the order the scan visited them, so
	// the RNG draw sequence (and therefore every Result) is unchanged.
	// newFaultState fills both heaps once; due is the reused pop buffer.
	linkClock flipHeap
	nodeClock flipHeap
	due       []int
	// flipped lists, in ascending ID order, the satellites whose Up the
	// last update changed: the sources whose generation stops or resumes.
	flipped []int
}

// shadowArc is one shell's share of the eclipse sweep. The nodes lo..hi-1
// hold consecutive IDs with non-decreasing phase offsets posFrac, so at a
// given time t their values t/P + posFrac do not decrease with the ID
// either. Their phases frac(t/P + posFrac) then rise with the ID except
// where the integer part steps up, which happens at most twice, and the
// nodes whose phase lies inside [0, eclipseFrac) form a prefix of each
// stretch between steps. edges lists the eclipsed set as ascending toggle
// points: a node is eclipsed when an odd number of edges are at or below
// its ID.
type shadowArc struct {
	shell  int
	lo, hi int
	edges  []int
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

// newFaultState seeds the processes over g: every link, then every
// satellite, draws its first transition time at t = 0. Only optical
// terminals under EclipseOutage get the eclipse sweep, so a node is ever
// eclipsed only where its shadow takes its links down.
func newFaultState(cfg FaultConfig, ts TopologySpec, g *Graph, rng *rand.Rand) *faultState {
	fs := &faultState{cfg: cfg, rng: rng}
	if cfg.EclipseOutage && ts.Tech.Optical {
		for _, sh := range ts.stack() {
			frac, period := eclipseFractionAt(sh.AltKm)
			fs.eclipseFrac = append(fs.eclipseFrac, frac)
			fs.periodSec = append(fs.periodSec, period)
		}
		// Builders lay each shell's nodes in phase order, so a shell is
		// one arc; a node out of that order would open a new one.
		for i := range g.nodes {
			n := &g.nodes[i]
			if n.geo || fs.eclipseFrac[n.shell] <= 0 {
				continue
			}
			k := len(fs.arcs) - 1
			if k < 0 || fs.arcs[k].shell != n.shell || fs.arcs[k].hi != i || n.posFrac < g.nodes[i-1].posFrac {
				fs.arcs = append(fs.arcs, shadowArc{shell: n.shell, lo: i})
				k++
			}
			fs.arcs[k].hi = i + 1
		}
	}
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

// update advances every fault process to time t and returns whether any
// link or node changed state (the routing table must then be updated). It
// lists in flipped the satellites whose Up it changed. All
// transitions of a step — link flips, satellite flips, and the eclipse
// sweep — are applied as one batch: each mutation first records the
// affected links' pre-batch usability into the graph's pending batch
// (noteLink/noteNode), and the caller folds the whole batch into the
// routing table with a single repairRoutes (or full recompute) instead of
// one per transition. A failed satellite loses the segments buffered on
// its outgoing links; those losses count as drops only inside the
// measurement window.
func (fs *faultState) update(t float64, g *Graph, measure bool) bool {
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

// updateEclipse moves the shadow arc: satellite p is eclipsed while its
// orbital phase frac(t/P + posFrac) lies inside [0, eclipseFrac), with P
// and the fraction taken from the node's own shell — each shell's arc
// sweeps at its own orbital rate. Each arc's new edges come from binary
// searches on that predicate, and only the nodes between an old edge and
// its new position flip, in ascending ID order, so the pending batch and
// the events follow node order.
func (fs *faultState) updateEclipse(t float64, g *Graph) bool {
	changed := false
	for a := range fs.arcs {
		arc := &fs.arcs[a]
		edges := fs.arcEdges[:0]
		x := t / fs.periodSec[arc.shell]
		frac := fs.eclipseFrac[arc.shell]
		for lo := arc.lo; lo < arc.hi; {
			// The stretch [lo, end) shares lo's integer part of t/P + posFrac.
			whole := math.Floor(x + g.nodes[lo].posFrac)
			end := lo + sort.Search(arc.hi-lo, func(j int) bool {
				return math.Floor(x+g.nodes[lo+j].posFrac) > whole
			})
			in := lo + sort.Search(end-lo, func(j int) bool {
				return !(math.Mod(x+g.nodes[lo+j].posFrac, 1) < frac)
			})
			if in > lo {
				edges = append(edges, lo, in)
			}
			lo = end
		}
		// Merging the old and new edges yields the toggle points of the
		// nodes whose flag differs; an edge in both lists cancels.
		old := arc.edges
		from, odd := 0, false
		for i, j := 0, 0; i < len(old) || j < len(edges); {
			var at int
			switch {
			case j == len(edges) || (i < len(old) && old[i] < edges[j]):
				at = old[i]
				i++
			case i == len(old) || edges[j] < old[i]:
				at = edges[j]
				j++
			default:
				i++
				j++
				continue
			}
			if odd {
				for id := from; id < at; id++ {
					n := &g.nodes[id]
					g.noteNode(id)
					n.eclipsed = !n.eclipsed
					fs.Events++
					changed = true
				}
			}
			from, odd = at, !odd
		}
		arc.edges = append(old[:0], edges...)
		fs.arcEdges = edges
	}
	return changed
}

// clearQueue discards everything buffered on the link, counting the loss
// when it falls inside the measurement window.
func (l *Link) clearQueue(measure bool) {
	if measure {
		for _, r := range l.q {
			l.drops += r.n
		}
	}
	l.q = nil
	l.qBits = 0
	l.headDone = 0
}
