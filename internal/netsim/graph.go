package netsim

import (
	"fmt"
	"math"
)

// node is the dynamic state of one spacecraft.
type node struct {
	// Up is false while the whole satellite is failed.
	Up bool
	// eclipsed is true while the satellite is inside the Earth-shadow
	// sweep (matters only to optical links under EclipseOutage).
	eclipsed bool
	// posFrac is the node's angular position around the plane in [0,1),
	// which phases its passage through the shadow arc.
	posFrac float64
	// geo marks GEO sinks, which the LEO eclipse sweep never shadows.
	geo bool
	// shell indexes the node's shell in a multi-shell stack (0 in
	// single-shell graphs), selecting its eclipse geometry.
	shell int
	// nextFlip is the sampled time of the next up/down transition;
	// +Inf when no failure process is attached.
	nextFlip float64
}

// Link is one directed ISL with a FIFO queue.
type Link struct {
	ID             int
	From, To       int
	CapacityBps    float64
	DelaySec       float64
	QueueLimitBits float64

	// Up is false during a link-level outage (pointing loss).
	Up       bool
	nextFlip float64

	// FIFO queue of segment runs; headDone tracks partially-served bits
	// of the first segment of q[0].
	q        []segRun
	qBits    float64
	headDone float64

	// Measurement-window counters.
	sentBits  float64
	drops     int
	peakQBits float64
}

// key identifies a link across topology rebuilds.
func (l *Link) key() [2]int { return [2]int{l.From, l.To} }

// infDist marks an unreachable node in the routing table.
const infDist = math.MaxInt32

// Graph is the link graph the driver rebuilds every epoch.
type Graph struct {
	nodes []node
	Links []*Link
	// out lists outgoing link IDs per node.
	out [][]int
	// in lists incoming link IDs per node. It is maintained by addLink so
	// neither the full recompute nor the incremental repair re-derives (and
	// re-allocates) it per routing update.
	in [][]int
	// Sinks are SµDC node IDs; Sources are EO satellite node IDs.
	Sinks   []int
	Sources []int
	// crossShell counts directed links whose endpoints sit in different
	// shells; zero for single-shell graphs.
	crossShell int
	// next is the routing table: per node, the outgoing link ID on a
	// shortest path toward the nearest reachable sink, or -1. The choice
	// among equal-length paths is canonical — the lowest-numbered eligible
	// link (see deriveNext) — so the table is a pure function of dist and
	// the usability state, and the incremental repair path reproduces a
	// full recompute bit for bit.
	next []int
	dist []int

	// Busy-link set: the IDs of links with a non-empty queue, maintained by
	// markBusy at enqueue time and pruned by the driver's service loop, so
	// serving and queue-depth sampling walk only the links actually
	// carrying traffic instead of every link every step. The driver sorts
	// busyIDs before each service pass, preserving the ascending-ID service
	// order a full scan had — results are unchanged.
	busy    []bool
	busyIDs []int

	// Pending usability batch: the fault layer records every link whose
	// usability may change this step (noteLink/noteNode, called before the
	// state flip) and repairRoutes folds the whole batch into the table in
	// one pass. noted de-duplicates per link; notedWas keeps the
	// pre-batch usability for the net-change classification.
	noted    []bool
	notedIDs []int
	notedWas []bool

	// Repair scratch, reused across repairs so steady-state fault handling
	// allocates nothing: affected marks the orphaned subtree, best holds
	// tentative distances (infDist when clean, reset via bestSet), levels
	// is the bucket queue of the distance wavefronts, touched/touchIDs
	// collect the nodes whose next-hop must be re-derived, and
	// stack/aNodes/downs/ups are traversal worklists.
	affected []bool
	best     []int
	bestSet  []int
	levels   [][]int
	touched  []bool
	touchIDs []int
	stack    []int
	aNodes   []int
	downs    []int
	ups      []int
}

// newGraph allocates an empty graph of n nodes, all healthy.
func newGraph(n int) *Graph {
	g := &Graph{
		nodes: make([]node, n),
		out:   make([][]int, n),
		in:    make([][]int, n),
		next:  make([]int, n),
		dist:  make([]int, n),
	}
	for i := range g.nodes {
		g.nodes[i].Up = true
		g.nodes[i].nextFlip = math.Inf(1)
	}
	return g
}

// addLink appends a directed link.
func (g *Graph) addLink(from, to int, capBps, delaySec, queueBits float64) *Link {
	l := &Link{
		ID: len(g.Links), From: from, To: to,
		CapacityBps: capBps, DelaySec: delaySec, QueueLimitBits: queueBits,
		Up: true, nextFlip: math.Inf(1),
	}
	g.Links = append(g.Links, l)
	g.out[from] = append(g.out[from], l.ID)
	g.in[to] = append(g.in[to], l.ID)
	return l
}

// usable reports whether a link can carry traffic right now: the link
// itself is acquired, both endpoints are alive, and (for optical terminals
// under an eclipse-outage regime) neither endpoint is in shadow.
func (g *Graph) usable(l *Link, eclipseOutage bool) bool {
	if !l.Up || !g.nodes[l.From].Up || !g.nodes[l.To].Up {
		return false
	}
	if eclipseOutage && (g.nodes[l.From].eclipsed || g.nodes[l.To].eclipsed) {
		return false
	}
	return true
}

// CrossShellLinks reports the number of directed inter-shell links in the
// graph; zero for single-shell topologies.
func (g *Graph) CrossShellLinks() int { return g.crossShell }

// isSink reports whether node id is a SµDC.
func (g *Graph) isSink(id int) bool {
	for _, s := range g.Sinks {
		if s == id {
			return true
		}
	}
	return false
}

// recomputeRoutes rebuilds the shortest-path routing table by multi-source
// BFS from every live sink over the currently usable links. Unreachable
// nodes get next = -1; their sources keep generating and their segments
// are dropped at enqueue time, to be recovered by transport retransmission
// once connectivity returns. Any pending usability batch is discarded — a
// full recompute subsumes it.
func (g *Graph) recomputeRoutes(eclipseOutage bool) {
	g.clearPending()
	for i := range g.dist {
		g.dist[i] = infDist
	}
	queue := g.stack[:0]
	for _, s := range g.Sinks {
		if g.nodes[s].Up {
			g.dist[s] = 0
			queue = append(queue, s)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		v := queue[qi]
		for _, li := range g.in[v] {
			l := g.Links[li]
			if !g.usable(l, eclipseOutage) {
				continue
			}
			if u := l.From; g.dist[u] > g.dist[v]+1 {
				g.dist[u] = g.dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	g.stack = queue[:0]
	for u := range g.next {
		g.next[u] = g.deriveNext(u, eclipseOutage)
	}
}

// deriveNext returns the canonical routing choice for node u: the
// lowest-numbered usable out-link whose far end sits exactly one hop
// closer to a sink, or -1 for sinks and unreachable nodes. Because the
// choice depends only on dist and the usability state — never on the
// order route updates happened to run in — the incremental repair path
// and a from-scratch BFS agree on every entry.
func (g *Graph) deriveNext(u int, eclipseOutage bool) int {
	d := g.dist[u]
	if d == 0 || d == infDist {
		return -1
	}
	for _, li := range g.out[u] {
		l := g.Links[li]
		if g.usable(l, eclipseOutage) && g.dist[l.To] == d-1 {
			return li
		}
	}
	return -1
}

// noteLink records link li's usability ahead of a state flip, once per
// batch. The fault layer must call it (directly or via noteNode) before
// every mutation that can change the link's usability, so notedWas always
// holds the pre-batch value.
func (g *Graph) noteLink(li int, eclipseOutage bool) {
	if len(g.noted) != len(g.Links) {
		g.noted = make([]bool, len(g.Links))
	}
	if g.noted[li] {
		return
	}
	g.noted[li] = true
	g.notedIDs = append(g.notedIDs, li)
	g.notedWas = append(g.notedWas, g.usable(g.Links[li], eclipseOutage))
}

// noteNode records every link incident to node id ahead of a node-state
// flip (satellite failure/recovery or an eclipse transition).
func (g *Graph) noteNode(id int, eclipseOutage bool) {
	for _, li := range g.out[id] {
		g.noteLink(li, eclipseOutage)
	}
	for _, li := range g.in[id] {
		g.noteLink(li, eclipseOutage)
	}
}

// markBusy records link li as having queued traffic.
func (g *Graph) markBusy(li int) {
	if len(g.busy) != len(g.Links) {
		g.busy = make([]bool, len(g.Links))
	}
	if !g.busy[li] {
		g.busy[li] = true
		g.busyIDs = append(g.busyIDs, li)
	}
}

// clearPending drops the recorded usability batch.
func (g *Graph) clearPending() {
	for _, li := range g.notedIDs {
		g.noted[li] = false
	}
	g.notedIDs = g.notedIDs[:0]
	g.notedWas = g.notedWas[:0]
}

// ensureScratch sizes the repair scratch to the graph.
func (g *Graph) ensureScratch() {
	if len(g.affected) == len(g.nodes) {
		return
	}
	g.affected = make([]bool, len(g.nodes))
	g.touched = make([]bool, len(g.nodes))
	g.best = make([]int, len(g.nodes))
	for i := range g.best {
		g.best[i] = infDist
	}
}

// touch marks node u for next-hop re-derivation at the end of a repair.
func (g *Graph) touch(u int) {
	if !g.touched[u] {
		g.touched[u] = true
		g.touchIDs = append(g.touchIDs, u)
	}
}

// setBest lowers node u's tentative distance to d and enqueues it on the
// level-d bucket of the wavefront.
func (g *Graph) setBest(u, d int) {
	if g.best[u] == infDist {
		g.bestSet = append(g.bestSet, u)
	}
	g.best[u] = d
	for len(g.levels) <= d {
		g.levels = append(g.levels, nil)
	}
	g.levels[d] = append(g.levels[d], u)
}

// repairRoutes folds the batch of recorded usability transitions into the
// routing table without a full recompute. Links that went down orphan the
// subtree routed over them (delete-and-repair: the subtree is invalidated,
// then re-attached by a boundary wavefront in distance order); links that
// came up seed a relaxation wavefront that lowers distances outward; and
// the canonical next-hop is re-derived for exactly the nodes whose
// distance or eligible-link set changed. dist converges to the same unique
// shortest-distance field a full multi-source BFS computes, and next is a
// pure function of (dist, usability), so the repaired tables are identical
// to recomputeRoutes' — the invariant the differential tests pin down.
//
// It reports whether any recorded link actually changed usability; false
// means the tables were already correct and nothing was touched. Sink
// liveness changes are outside its contract: the fault layer never fails a
// SµDC, and epoch rebuilds take the full-recompute path.
func (g *Graph) repairRoutes(eclipseOutage bool) bool {
	g.ensureScratch()

	// Classify the batch by net usability change; flip-and-flip-back (or a
	// flip shadowed by a still-down endpoint) nets out to nothing.
	downs, ups := g.downs[:0], g.ups[:0]
	for k, li := range g.notedIDs {
		nowUsable := g.usable(g.Links[li], eclipseOutage)
		if g.notedWas[k] == nowUsable {
			continue
		}
		if nowUsable {
			ups = append(ups, li)
		} else {
			downs = append(downs, li)
		}
	}
	g.downs, g.ups = downs, ups
	g.clearPending()
	if len(downs)+len(ups) == 0 {
		return false
	}

	// --- Deletions, phase A: collect the orphaned subtree. A node is
	// orphaned when its tree edge became unusable, and recursively when its
	// tree parent is orphaned. This over-approximates (an orphan may keep
	// its distance through an equal-length alternative); phase B restores
	// such nodes at unchanged dist.
	stack := g.stack[:0]
	for _, li := range downs {
		if u := g.Links[li].From; g.next[u] == li && !g.affected[u] {
			g.affected[u] = true
			stack = append(stack, u)
		}
	}
	aNodes := g.aNodes[:0]
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		aNodes = append(aNodes, u)
		for _, li := range g.in[u] {
			if w := g.Links[li].From; !g.affected[w] && g.next[w] == li {
				g.affected[w] = true
				stack = append(stack, w)
			}
		}
	}
	g.stack = stack[:0]
	g.aNodes = aNodes
	for _, u := range aNodes {
		g.dist[u] = infDist
		g.next[u] = -1
	}

	// --- Deletions, phase B: re-attach the subtree by a bucketed wavefront
	// from its boundary. Each orphan's candidate distance comes from its
	// usable out-links into intact territory; intra-subtree edges relax as
	// the wavefront finalizes nodes in increasing distance order — exactly
	// BFS restricted to the orphaned region.
	minLvl, maxLvl := infDist, 0
	for _, u := range aNodes {
		b := infDist
		for _, li := range g.out[u] {
			l := g.Links[li]
			if !g.usable(l, eclipseOutage) {
				continue
			}
			if d := g.dist[l.To]; d < infDist && d+1 < b {
				b = d + 1
			}
		}
		if b < infDist {
			g.setBest(u, b)
			if b < minLvl {
				minLvl = b
			}
			if b > maxLvl {
				maxLvl = b
			}
		}
	}
	for d := minLvl; d <= maxLvl && d < len(g.levels); d++ {
		lvl := g.levels[d]
		for i := 0; i < len(lvl); i++ {
			u := lvl[i]
			if g.dist[u] != infDist || g.best[u] != d {
				continue // finalized at a lower level, or a stale entry
			}
			g.dist[u] = d
			for _, li := range g.in[u] {
				l := g.Links[li]
				if !g.usable(l, eclipseOutage) {
					continue
				}
				w := l.From
				// w's eligible-link set changed (u's distance moved), even
				// when w sits outside the orphaned subtree.
				g.touch(w)
				if g.affected[w] && g.dist[w] == infDist && d+1 < g.best[w] {
					g.setBest(w, d+1)
					if d+1 > maxLvl {
						maxLvl = d + 1
					}
				}
			}
		}
		g.levels[d] = lvl[:0]
	}
	for _, u := range aNodes {
		g.affected[u] = false
		g.touch(u)
	}
	for _, u := range g.bestSet {
		g.best[u] = infDist
	}
	g.bestSet = g.bestSet[:0]

	// --- Insertions: every newly usable link is a candidate shortcut for
	// its tail; improvements propagate upstream in distance order. A node
	// whose distance drops also invalidates/creates eligibility on its
	// in-neighbors, so they are touched as the wavefront passes.
	minLvl, maxLvl = infDist, 0
	for _, li := range ups {
		l := g.Links[li]
		u := l.From
		g.touch(u) // a new eligible link may beat the current next[u]
		if dv := g.dist[l.To]; dv < infDist && dv+1 < g.dist[u] && dv+1 < g.best[u] {
			g.setBest(u, dv+1)
			if dv+1 < minLvl {
				minLvl = dv + 1
			}
			if dv+1 > maxLvl {
				maxLvl = dv + 1
			}
		}
	}
	for d := minLvl; d <= maxLvl && d < len(g.levels); d++ {
		lvl := g.levels[d]
		for i := 0; i < len(lvl); i++ {
			u := lvl[i]
			if g.best[u] != d || g.dist[u] <= d {
				continue
			}
			g.dist[u] = d
			g.touch(u)
			for _, li := range g.in[u] {
				l := g.Links[li]
				if !g.usable(l, eclipseOutage) {
					continue
				}
				w := l.From
				g.touch(w)
				if d+1 < g.dist[w] && d+1 < g.best[w] {
					g.setBest(w, d+1)
					if d+1 > maxLvl {
						maxLvl = d + 1
					}
				}
			}
		}
		g.levels[d] = lvl[:0]
	}
	for _, u := range g.bestSet {
		g.best[u] = infDist
	}
	g.bestSet = g.bestSet[:0]

	// Re-derive the canonical next-hop for every touched node.
	for _, u := range g.touchIDs {
		g.next[u] = g.deriveNext(u, eclipseOutage)
		g.touched[u] = false
	}
	g.touchIDs = g.touchIDs[:0]
	return true
}

// adoptState carries the dynamic state (fault clocks, eclipse flags,
// queues, metrics) from the previous epoch's graph into this freshly
// rebuilt one, matching links by (from, to). Links that ceased to exist
// drop their queued segments — the transport layer's timers recover them —
// and the number of segments that vanished this way is returned so the
// driver can attribute the delivery-ratio dip (Result.RebuildDrops).
func (g *Graph) adoptState(old *Graph) (vanishedSegs int) {
	if old == nil {
		return 0
	}
	for i := range g.nodes {
		if i >= len(old.nodes) {
			break
		}
		// Only dynamic state crosses the rebuild; posFrac and geo are
		// structural and belong to the new layout.
		g.nodes[i].Up = old.nodes[i].Up
		g.nodes[i].eclipsed = old.nodes[i].eclipsed
		g.nodes[i].nextFlip = old.nodes[i].nextFlip
	}
	prev := make(map[[2]int]*Link, len(old.Links))
	for _, l := range old.Links {
		prev[l.key()] = l
	}
	for _, l := range g.Links {
		if o, ok := prev[l.key()]; ok {
			l.Up = o.Up
			l.nextFlip = o.nextFlip
			l.q = o.q
			l.qBits = o.qBits
			l.headDone = o.headDone
			l.sentBits = o.sentBits
			l.drops = o.drops
			l.peakQBits = o.peakQBits
			if len(l.q) > 0 {
				g.markBusy(l.ID)
			}
			delete(prev, l.key())
		}
	}
	// Whatever is left in prev had no successor in the new topology; its
	// buffered segments vanish with it.
	for _, o := range prev {
		vanishedSegs += o.queuedSegs()
	}
	return vanishedSegs
}

// queuedSegs returns the number of segments buffered on the link.
func (l *Link) queuedSegs() int {
	n := 0
	for _, r := range l.q {
		n += r.n
	}
	return n
}

// linkName renders a link for reports.
func (g *Graph) linkName(l *Link) string {
	from, to := fmt.Sprintf("sat%d", l.From), fmt.Sprintf("sat%d", l.To)
	if g.isSink(l.From) {
		from = fmt.Sprintf("sudc%d", l.From)
	}
	if g.isSink(l.To) {
		to = fmt.Sprintf("sudc%d", l.To)
	}
	return from + "→" + to
}
