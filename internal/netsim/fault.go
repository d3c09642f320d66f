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
	// orbit — the pointing-loss-from-thermal-snap regime.
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
	cfg     FaultConfig
	rng     *rand.Rand
	optical bool
	// eclipse sweep geometry, indexed by shell: the fraction of each
	// shell's plane in shadow and the period of one sweep. Single-shell
	// specs get one entry. anyEclipse is false when every fraction is 0,
	// disabling the sweep.
	eclipseFrac []float64
	periodSec   []float64
	anyEclipse  bool
	// nextEclipse is the earliest time any node can cross the shadow-arc
	// boundary, derived in closed form from the sweep geometry on every
	// scan. updateEclipse skips its O(nodes) phase scan entirely until
	// then, making the sweep event-driven; zero forces a scan (initially
	// and after every epoch rebuild, whose fresh layout invalidates the
	// bound).
	nextEclipse float64
	// Events counts state transitions (for the run report).
	Events int

	// linkClock and nodeClock index the fault processes by next transition
	// time, so update pops exactly the links and satellites due this step
	// instead of scanning the whole population every step — O(transitions
	// log n) against the old O(links + sats) per step. Due entries are
	// processed in ascending ID order, the order the scan visited them, so
	// the RNG draw sequence (and therefore every Result) is unchanged.
	// seed rebuilds both heaps, re-indexing the population after an epoch
	// rebuild. due is the reused pop buffer.
	linkClock flipHeap
	nodeClock flipHeap
	due       []int
}

// flipEntry is one fault process in a flipHeap: the entity's ID and its
// next transition time.
type flipEntry struct {
	t  float64
	id int
}

// flipHeap is a binary min-heap of fault clocks ordered by transition
// time (ties by ID, for a deterministic pop order).
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

// newFaultState seeds the processes over g: every link and satellite draws
// its first transition time.
func newFaultState(cfg FaultConfig, ts TopologySpec, g *Graph, rng *rand.Rand) *faultState {
	fs := &faultState{cfg: cfg, rng: rng, optical: ts.Tech.Optical}
	if cfg.EclipseOutage {
		for _, alt := range ts.shellAltsKm() {
			frac, period := eclipseFractionAt(alt)
			fs.eclipseFrac = append(fs.eclipseFrac, frac)
			fs.periodSec = append(fs.periodSec, period)
			if frac > 0 {
				fs.anyEclipse = true
			}
		}
	}
	fs.seed(0, g)
	return fs
}

// seed draws a first transition time for every link and tracked satellite
// whose fault clock is still unset (+Inf): the whole population at t = 0,
// and, after an epoch rebuild, exactly the links and nodes the new
// topology introduced. Without the adoption-time draw, a link whose
// (from,to) key has no match in the previous epoch's graph would keep
// nextFlip = +Inf and be immortal under LinkOutage.
func (fs *faultState) seed(t float64, g *Graph) {
	fs.nextEclipse = 0
	fs.linkClock = fs.linkClock[:0]
	fs.nodeClock = fs.nodeClock[:0]
	if fs.cfg.LinkOutage > 0 {
		mtbf := fs.cfg.linkMTBF()
		for _, l := range g.Links {
			if math.IsInf(l.nextFlip, 1) {
				l.nextFlip = t + expSample(fs.rng, mtbf)
			}
			fs.linkClock.push(flipEntry{t: l.nextFlip, id: l.ID})
		}
	}
	if fs.cfg.SatMTBFSec > 0 {
		for _, s := range g.Sources {
			n := &g.nodes[s]
			if math.IsInf(n.nextFlip, 1) {
				n.nextFlip = t + expSample(fs.rng, fs.cfg.SatMTBFSec)
			}
			fs.nodeClock.push(flipEntry{t: n.nextFlip, id: s})
		}
	}
}

// update advances every fault process to time t and returns whether any
// link or node changed state (the routing table must then be updated). All
// transitions of a step — link flips, satellite flips, and the eclipse
// sweep — are applied as one batch: each mutation first records the
// affected links' pre-batch usability into the graph's pending batch
// (noteLink/noteNode), and the caller folds the whole batch into the
// routing table with a single repairRoutes (or full recompute) instead of
// one per transition. A failed satellite loses the segments buffered on
// its outgoing links; those losses count as drops only inside the
// measurement window.
func (fs *faultState) update(t float64, g *Graph, measure, eclipseOutage bool) bool {
	changed := false
	if fs.cfg.LinkOutage > 0 {
		fs.due = fs.linkClock.popDue(t, fs.due[:0])
		sort.Ints(fs.due)
		mtbf := fs.cfg.linkMTBF()
		for _, id := range fs.due {
			l := g.Links[id]
			g.noteLink(id, eclipseOutage)
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
			g.noteNode(s, eclipseOutage)
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
			fs.nodeClock.push(flipEntry{t: n.nextFlip, id: s})
		}
	}
	if fs.anyEclipse && fs.optical {
		changed = fs.updateEclipse(t, g, eclipseOutage) || changed
	}
	return changed
}

// updateEclipse moves the shadow arc: satellite p is eclipsed while its
// orbital phase frac(t/P + posFrac) lies inside [0, eclipseFrac), with P
// and the fraction taken from the node's own shell — each shell's arc
// sweeps at its own orbital rate. Each scan also computes, per node, the
// time of its next boundary crossing (entry at phase 1→0, exit at phase
// eclipseFrac) and records the minimum, so the steps between crossings —
// the overwhelming majority at a 0.1 s resolution against a ~95-minute
// sweep — skip the scan in O(1).
func (fs *faultState) updateEclipse(t float64, g *Graph, eclipseOutage bool) bool {
	if t < fs.nextEclipse {
		return false
	}
	changed := false
	next := math.Inf(1)
	for i := range g.nodes {
		n := &g.nodes[i]
		if n.geo || n.shell >= len(fs.eclipseFrac) {
			continue
		}
		frac, period := fs.eclipseFrac[n.shell], fs.periodSec[n.shell]
		if frac <= 0 {
			continue
		}
		phase := math.Mod(t/period+n.posFrac, 1)
		ecl := phase < frac
		if ecl != n.eclipsed {
			g.noteNode(i, eclipseOutage)
			n.eclipsed = ecl
			fs.Events++
			changed = true
		}
		boundary := 1.0
		if ecl {
			boundary = frac
		}
		if flip := t + (boundary-phase)*period; flip < next {
			next = flip
		}
	}
	fs.nextEclipse = next
	return changed
}

// clearQueue discards everything buffered on the link, counting the loss
// when it falls inside the measurement window.
func (l *Link) clearQueue(measure bool) {
	if measure {
		l.drops += l.queuedSegs()
	}
	l.q = nil
	l.qBits = 0
	l.headDone = 0
}
