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

// Validate checks the regime; a NaN or infinite clock never comes due.
func (fc FaultConfig) Validate() error {
	if !(fc.LinkOutage >= 0 && fc.LinkOutage < 1) {
		return fmt.Errorf("netsim: link outage fraction %v outside [0,1)", fc.LinkOutage)
	}
	for _, v := range []float64{fc.LinkMTTRSec, fc.SatMTBFSec, fc.SatMTTRSec} {
		if !(v >= 0) || math.IsInf(v, 1) {
			return fmt.Errorf("netsim: MTBF/MTTR %v is not non-negative and finite", v)
		}
	}
	return nil
}

// MaxFaultFlips caps the fault-clock transitions a run is expected to
// make, one RNG draw each. Validate takes any finite mean time, and a clock
// with a tiny one flips about StepSec/mean times a step: a link MTTR of
// 1e-300 s would need some 1e300 draws, and Run reads no context, so one
// daemon request would hold its admission slot for good. Like
// MaxOfferedSegments it is 2^24, 279× the largest expectation any
// experiment, test, pin, example or benchmark runs (60,067: the
// 50,000-satellite mega-constellation). A four-satellite ring expected to
// make 2^24 flips runs in 0.3 s (2-vCPU Intel Xeon, Go 1.24.0).
const MaxFaultFlips = 1 << 24

// expectedFlips returns the transitions the clocks of links directed links
// and sats satellites are expected to make in durationSec: a link goes down
// and back up once per LinkMTTRSec/LinkOutage on average, a satellite once
// per SatMTBFSec + SatMTTRSec.
func (fc FaultConfig) expectedFlips(links, sats int, durationSec float64) float64 {
	flips := 0.0
	if fc.LinkOutage > 0 {
		flips += float64(links) * 2 * durationSec * fc.LinkOutage / fc.LinkMTTRSec
	}
	if fc.SatMTBFSec > 0 {
		flips += float64(sats) * 2 * durationSec / (fc.SatMTBFSec + fc.SatMTTRSec)
	}
	return flips
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
	// dt and steps are the run's step length and count.
	dt    float64
	steps int
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

	// linkClock and nodeClock, nil while their process is off, file each
	// link and satellite by ID at the first step whose time reaches its next
	// transition (none past the last step), so update visits only the clocks
	// due, in ascending ID order as a scan of the population would: the RNG
	// draws in that order. due is the reused take buffer.
	linkClock *calendar
	nodeClock *calendar
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

// newFaultState seeds the processes over g for a run of steps steps of dt
// seconds: every link, then every satellite, draws its first transition
// time at t = 0 from seed. Only these clocks draw, so a run without them
// builds no source. Only optical terminals under EclipseOutage get the
// eclipse sweep, so a node is ever eclipsed only where its shadow takes its
// links down.
func newFaultState(cfg FaultConfig, ts TopologySpec, g *Graph, seed int64, dt float64, steps int) *faultState {
	fs := &faultState{cfg: cfg, dt: dt, steps: steps}
	if cfg.LinkOutage > 0 || cfg.SatMTBFSec > 0 {
		fs.rng = rand.New(rand.NewSource(seed))
	}
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
		fs.linkClock = newCalendar(len(g.Links), steps)
		for _, l := range g.Links {
			l.nextFlip = expSample(fs.rng, cfg.linkMTBF())
			fs.linkClock.file(l.ID, 0, dueStep(l.nextFlip, dt, 1, steps))
		}
	}
	if cfg.SatMTBFSec > 0 {
		fs.nodeClock = newCalendar(len(g.nodes), steps)
		for _, s := range g.Sources {
			n := &g.nodes[s]
			n.nextFlip = expSample(fs.rng, cfg.SatMTBFSec)
			fs.nodeClock.file(s, 0, dueStep(n.nextFlip, dt, 1, steps))
		}
	}
	return fs
}

// update advances every fault process to step's time t, float64(step) × dt
// as Run computes it, and returns whether any link or node changed state
// (the routing table must then be updated). It lists in flipped the
// satellites whose Up it changed. All transitions of a step (link flips,
// satellite flips and the eclipse sweep) are applied as one batch: each
// mutation first records the affected links' pre-batch usability into the
// graph's pending batch (noteLink/noteNode), and the caller folds the whole
// batch into the routing table with a single repairRoutes (or full
// recompute). A failed satellite loses the segments buffered on its
// outgoing links; those losses count as drops only inside the measurement
// window.
func (fs *faultState) update(step int, g *Graph, measure bool) bool {
	t := float64(step) * fs.dt
	changed := false
	fs.flipped = fs.flipped[:0]
	for _, id := range fs.linkClock.take(step, &fs.due) {
		l := g.Links[id]
		g.noteLink(id)
		for t >= l.nextFlip {
			l.Up = !l.Up
			fs.Events++
			changed = true
			if l.Up {
				l.nextFlip += expSample(fs.rng, fs.cfg.linkMTBF())
			} else {
				l.nextFlip += expSample(fs.rng, fs.cfg.LinkMTTRSec)
			}
		}
		fs.linkClock.file(id, 0, dueStep(l.nextFlip, fs.dt, step+1, fs.steps))
	}
	for _, s := range fs.nodeClock.take(step, &fs.due) {
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
		fs.nodeClock.file(s, 0, dueStep(n.nextFlip, fs.dt, step+1, fs.steps))
	}
	return fs.updateEclipse(t, g) || changed
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
