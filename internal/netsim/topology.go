package netsim

import (
	"fmt"
	"math"

	"spacedc/internal/isl"
	"spacedc/internal/orbit"
)

// TopologyKind selects the network family the driver builds.
type TopologyKind int

// Topology kinds.
const (
	// ClusterTopology is the in-plane formation of the paper's §7: EO
	// satellites and Split SµDC sinks spaced around one orbital plane,
	// connected by span-K/2 ISLs (K = 2 is the ring, larger even K the
	// k-lists), each sink receiving on its K nearest satellites.
	ClusterTopology TopologyKind = iota
	// GEOStarTopology is the Fig 15 deployment: every EO satellite drives
	// one long link straight up to its assigned GEO SµDC.
	GEOStarTopology
)

// ShellSpec is one shell of a multi-shell constellation: its own simulated
// plane population, intra-shell cluster fabric (K = 2 is the ring, larger
// even K the k-lists, Split the SµDC splitting), and altitude — which
// fixes the shell's link geometry, orbital period, and eclipse fraction.
type ShellSpec struct {
	// Sats is the shell's EO satellite count (flow sources).
	Sats int
	// Cluster gives the shell's intra-shell ISL budget: K and Split.
	Cluster isl.Topology
	// AltKm is the shell altitude in km.
	AltKm float64
}

// InterShellKind selects the cross-link rule between two adjacent shells.
type InterShellKind int

// Inter-shell link rules.
const (
	// InterShellAligned cross-links satellites by scaled index: satellite
	// i of the lower shell pairs with satellite i·N_hi/N_lo of the upper
	// one, so the pattern is fixed regardless of phasing.
	InterShellAligned InterShellKind = iota
	// InterShellNearest cross-links each selected lower-shell satellite to
	// the upper-shell satellite whose ascending-node phase (angular
	// position around the plane) is nearest, ties to the lower index.
	InterShellNearest
)

// String names the rule for reports.
func (k InterShellKind) String() string {
	switch k {
	case InterShellAligned:
		return "aligned"
	case InterShellNearest:
		return "nearest"
	}
	return fmt.Sprintf("inter-shell-kind-%d", int(k))
}

// InterShellRule wires one adjacent shell pair.
type InterShellRule struct {
	Kind InterShellKind
	// CrossLinks caps the number of cross-linked satellite pairs between
	// the two shells (the pair's ISL terminal budget). Zero means one pair
	// per satellite of the smaller shell.
	CrossLinks int
}

// interShellRefKm anchors the cross-link capacity derate: a cross-link's
// capacity is Tech.Capacity · ref/(ref+range), so longer inter-shell hops
// (free-space loss, coarser pointing) carry proportionally less than the
// in-plane fabric. Its latency is range/c.
const interShellRefKm = 500.0

// TopologySpec describes the network a run builds once and keeps for its
// whole span. Validation, building and the fault layer read every spec
// as a shell stack (see stack): the one-plane fields Sats, Cluster and
// LowAltKm are shorthand for a one-shell stack, and Shells spells a stack
// out.
type TopologySpec struct {
	Kind TopologyKind
	// Sats is the number of EO satellites (flow sources).
	Sats int
	// Cluster gives K and Split for ClusterTopology.
	Cluster isl.Topology
	// Tech supplies link capacity and whether the terminal is optical
	// (optical terminals lose pointing in eclipse sweeps).
	Tech isl.LinkTech
	// GEOSinks is the number of GEO SµDCs for GEOStarTopology. Zero
	// means 3 (the minimal whole-Earth star).
	GEOSinks int
	// LowAltKm is the EO altitude of a one-plane spec, which fixes its
	// link geometry, GEO slant range and eclipse geometry. Zero means 550.
	LowAltKm float64
	// QueueSec sizes each link's FIFO queue in seconds of link capacity.
	QueueSec float64

	// Shells, when non-empty, replaces the one-plane fields above with a
	// multi-shell stack: one cluster fabric per shell (each at its own
	// altitude, with its own eclipse geometry and orbital period) wired
	// into one graph by the InterShell cross-link rules. Kind must be
	// ClusterTopology (the zero value) and Sats, GEOSinks and LowAltKm
	// must be zero.
	Shells []ShellSpec
	// InterShell wires each adjacent shell pair; its length must be
	// len(Shells)-1, so a one-plane spec carries none. Cross-link latency
	// and capacity derive from the altitude gap between the two shells.
	InterShell []InterShellRule
}

// stack returns the spec's shells: Shells itself, or the one-plane fields
// as one shell at LowAltKm (550 km when zero). A GEO star's one shell is
// its EO satellites; the star does not read the shell's Cluster.
func (ts TopologySpec) stack() []ShellSpec {
	if len(ts.Shells) > 0 {
		return ts.Shells
	}
	alt := ts.LowAltKm
	if alt == 0 {
		alt = 550
	}
	return []ShellSpec{{Sats: ts.Sats, Cluster: ts.Cluster, AltKm: alt}}
}

// geoSinks returns a GEO star's sink count: GEOSinks with its default,
// never more than the satellites the sinks serve.
func (ts TopologySpec) geoSinks() int {
	n := ts.GEOSinks
	if n == 0 {
		n = 3
	}
	return min(n, ts.Sats)
}

// Validate checks the spec's shell stack, so both spec forms get the same
// per-shell checks, and rejects a spec whose satellites plus sinks exceed
// MaxDesignNodes before any graph is allocated. It is the one structural
// check: BuildGraph, Scenario.Validate and the design constructors all
// return its verdict. Every rejection is a *DesignError; per-shell fields
// carry a shell[i]. prefix on a stack and none on a one-plane spec.
func (ts TopologySpec) Validate() error {
	if c := float64(ts.Tech.Capacity); !(c > 0) || math.IsInf(c, 1) {
		return designErrf("link-tech", "capacity %v is not positive and finite", ts.Tech.Capacity)
	}
	if !(ts.QueueSec >= 0) || math.IsInf(ts.QueueSec, 1) {
		return designErrf("queue", "depth %v s is not finite and non-negative", ts.QueueSec)
	}
	switch ts.Kind {
	case ClusterTopology:
	case GEOStarTopology:
		if ts.GEOSinks < 0 {
			return designErrf("topology", "negative GEO sink count %d", ts.GEOSinks)
		}
	default:
		return designErrf("topology", "unknown kind %d", ts.Kind)
	}
	if len(ts.Shells) > 0 {
		if ts.Kind != ClusterTopology {
			return designErrf("shells", "multi-shell stacks are cluster-kind; kind %d cannot carry shells", ts.Kind)
		}
		if ts.Sats != 0 || ts.GEOSinks != 0 || ts.LowAltKm != 0 {
			return designErrf("shells", "spec sets both Shells and one-plane fields (sats=%d, geoSinks=%d, lowAltKm=%v)",
				ts.Sats, ts.GEOSinks, ts.LowAltKm)
		}
	}
	shells := ts.stack()
	if len(ts.InterShell) != len(shells)-1 {
		return designErrf("inter-shell", "%d shells need %d rules, got %d",
			len(shells), len(shells)-1, len(ts.InterShell))
	}
	nodes := 0
	for i, sh := range shells {
		if sh.Sats < 1 {
			return designErrf(ts.shellField(i, "sats-per-plane"), "need ≥ 1, got %d", sh.Sats)
		}
		// Bound the shell before adding it, so adversarial counts cannot
		// overflow the sum; a shell never has more sinks than satellites.
		if sh.Sats > MaxDesignNodes {
			return designErrf(ts.shellField(i, "sats-per-plane"),
				"%d exceeds the %d-node design ceiling", sh.Sats, MaxDesignNodes)
		}
		if !(sh.AltKm > 0) || sh.AltKm > 100e3 {
			return designErrf(ts.shellField(i, "altitude"), "need 0 < alt ≤ 100000 km, got %v", sh.AltKm)
		}
		if ts.Kind == GEOStarTopology {
			if sh.AltKm >= orbit.GeostationaryAltitudeKm {
				return designErrf("altitude", "GEO-star design needs alt < %v km, got %v",
					orbit.GeostationaryAltitudeKm, sh.AltKm)
			}
			nodes += sh.Sats + ts.geoSinks()
		} else {
			cl := sh.Cluster
			if cl.K < 2 || cl.K%2 != 0 {
				return designErrf(ts.shellField(i, "isl-budget"),
					"cluster fabric needs an even receiver fan-in K ≥ 2, got %d (a zero-ISL design ships nothing)", cl.K)
			}
			if cl.Split < 1 {
				return designErrf(ts.shellField(i, "split"), "need ≥ 1 SµDC per plane, got %d", cl.Split)
			}
			// Division form: K·Split can overflow for adversarial values.
			if cl.Split > sh.Sats/cl.K {
				return designErrf(ts.shellField(i, "sats-per-plane"),
					"%d satellites cannot populate %d sinks × %d receivers", sh.Sats, cl.Split, cl.K)
			}
			nodes += sh.Sats + cl.Split
		}
		if nodes > MaxDesignNodes {
			return designErrf("shells", "%d satellites and sinks through shell %d exceed the %d-node design ceiling",
				nodes, i, MaxDesignNodes)
		}
	}
	for i, rule := range ts.InterShell {
		if rule.Kind != InterShellAligned && rule.Kind != InterShellNearest {
			return designErrf("inter-shell", "rule %d: unknown kind %d", i, int(rule.Kind))
		}
		maxPairs := min(shells[i].Sats, shells[i+1].Sats)
		if rule.CrossLinks < 0 || rule.CrossLinks > maxPairs {
			return designErrf("cross-links", "budget %d in pair %d–%d outside [0, %d], the smaller shell's satellites",
				rule.CrossLinks, i, i+1, maxPairs)
		}
	}
	return nil
}

// shellField names per-shell field f of shell i: bare on a one-plane spec,
// shell[i].f on a stack.
func (ts TopologySpec) shellField(i int, f string) string {
	if len(ts.Shells) == 0 {
		return f
	}
	return fmt.Sprintf("shell[%d].%s", i, f)
}

// TotalSats returns the EO satellite population summed over the spec's
// shells.
func (ts TopologySpec) TotalSats() int {
	total := 0
	for _, sh := range ts.stack() {
		total += sh.Sats
	}
	return total
}

const lightSpeedKmS = 299792.458

// BuildGraph constructs the structural link graph for the spec. Run calls
// it once; the graph's links and nodes then stay fixed for the run.
func BuildGraph(ts TopologySpec) (*Graph, error) {
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	if ts.Kind == GEOStarTopology {
		return buildGEOStar(ts), nil
	}
	return buildStack(ts), nil
}

// layCluster lays one shell's cluster plane — sh.Sats satellites plus
// sh.Cluster.Split sinks, orbit-spaced at sh.AltKm — into g starting at
// node offset, tagging every node with the shell index and appending the
// shell's sinks and its sh.Sats satellites (in plane order) to g.Sinks and
// g.Sources. It then wires the span-K/2 ISL fabric: satellite↔satellite
// links K/2 positions apart in both directions, and each sink receiving
// from its K nearest satellites (spans 1…K/2 on each side). Shortest-path
// routing over this fabric reproduces exactly the K relay chains per sink
// that isl.BuildCluster constructs analytically — netsim builds the
// *physical* fabric so that traffic can reroute the long way around when a
// chain link fails.
func layCluster(g *Graph, offset, shellIdx int, sh ShellSpec, capBps, queueBits float64) {
	cl := sh.Cluster
	total := sh.Sats + cl.Split
	geom := isl.OrbitSpacedGeometry(sh.AltKm, total)

	// Sink positions, evenly spaced around the plane.
	isSink := func(p int) bool { return g.nodes[offset+p].sink }
	for s := 0; s < cl.Split; s++ {
		p := s * total / cl.Split
		g.Sinks = append(g.Sinks, offset+p)
		g.nodes[offset+p].sink = true
	}
	for p := 0; p < total; p++ {
		g.nodes[offset+p].posFrac = float64(p) / float64(total)
		g.nodes[offset+p].shell = shellIdx
		if !isSink(p) {
			g.Sources = append(g.Sources, offset+p)
		}
	}

	span := cl.K / 2
	addPair := func(a, b, spanHops int) {
		dist := geom.HopDistanceKm(2 * spanHops)
		delay := dist / lightSpeedKmS
		g.addLink(offset+a, offset+b, capBps, delay, queueBits)
		g.addLink(offset+b, offset+a, capBps, delay, queueBits)
	}
	// Satellite↔satellite span links.
	for p := 0; p < total; p++ {
		q := (p + span) % total
		if isSink(p) || isSink(q) {
			continue // sink attachment handled below
		}
		addPair(p, q, span)
	}
	// Sink receiver links: the K nearest satellites, spans 1…K/2 on each
	// side (skipping positions occupied by other sinks in tiny configs).
	for s := 0; s < cl.Split; s++ {
		sink := s * total / cl.Split
		for sp := 1; sp <= span; sp++ {
			for _, q := range []int{(sink + sp) % total, (sink - sp + total) % total} {
				if !isSink(q) {
					addPair(sink, q, sp)
				}
			}
		}
	}
}

// buildStack lays every shell's cluster fabric at consecutive node offsets
// (shell 0 lowest) and then wires the inter-shell cross-links last, so
// intra-shell link IDs match a stack of independent one-shell graphs and
// cross-links take the highest IDs deterministically. Cross-link latency
// is the altitude gap over c; capacity derates with the gap against
// interShellRefKm.
func buildStack(ts TopologySpec) *Graph {
	shells := ts.stack()
	total := 0
	for _, sh := range shells {
		total += sh.Sats + sh.Cluster.Split
	}
	g := newGraph(total)
	cap := float64(ts.Tech.Capacity)
	offset := 0
	for i, sh := range shells {
		layCluster(g, offset, i, sh, cap, ts.QueueSec*cap)
		offset += sh.Sats + sh.Cluster.Split
	}

	// Each shell appended exactly its Sats sources, so shell i's
	// satellites are the g.Sources entries from first on.
	first := 0
	for i, rule := range ts.InterShell {
		lo := g.Sources[first : first+shells[i].Sats]
		first += shells[i].Sats
		hi := g.Sources[first : first+shells[i+1].Sats]
		rangeKm := math.Abs(shells[i+1].AltKm - shells[i].AltKm)
		delay := rangeKm / lightSpeedKmS
		xcap := cap * interShellRefKm / (interShellRefKm + rangeKm)
		queueBits := ts.QueueSec * xcap

		n := rule.CrossLinks
		if n == 0 || n > len(lo) {
			n = len(lo)
		}
		if n > len(hi) {
			n = len(hi)
		}
		for j := 0; j < n; j++ {
			a := j * len(lo) / n // evenly spaced lower-shell satellites
			var b int
			switch rule.Kind {
			case InterShellNearest:
				b = nearestByPos(g, lo[a], hi)
			default: // InterShellAligned
				b = a * len(hi) / len(lo)
			}
			g.addLink(lo[a], hi[b], xcap, delay, queueBits)
			g.addLink(hi[b], lo[a], xcap, delay, queueBits)
			g.crossShell += 2
		}
	}
	return g
}

// nearestByPos returns the index into candidates of the node whose plane
// phase is circularly closest to node from's, ties to the lowest index.
func nearestByPos(g *Graph, from int, candidates []int) int {
	best, bestDist := 0, math.Inf(1)
	p := g.nodes[from].posFrac
	for idx, c := range candidates {
		d := math.Abs(g.nodes[c].posFrac - p)
		if d > 0.5 {
			d = 1 - d
		}
		if d < bestDist {
			best, bestDist = idx, d
		}
	}
	return best
}

// buildGEOStar wires every EO satellite straight to its assigned GEO sink.
func buildGEOStar(ts TopologySpec) *Graph {
	sinks := ts.geoSinks()
	g := newGraph(ts.Sats + sinks)
	cap := float64(ts.Tech.Capacity)
	queueBits := ts.QueueSec * cap
	slantKm := orbit.GeostationaryAltitudeKm - ts.stack()[0].AltKm
	delay := slantKm / lightSpeedKmS
	for s := 0; s < sinks; s++ {
		g.Sinks = append(g.Sinks, ts.Sats+s)
		g.nodes[ts.Sats+s].geo = true
		g.nodes[ts.Sats+s].sink = true
	}
	for p := 0; p < ts.Sats; p++ {
		g.Sources = append(g.Sources, p)
		g.nodes[p].posFrac = float64(p) / float64(ts.Sats)
		// Longitude thirds: contiguous blocks of satellites share a sink.
		sink := ts.Sats + p*sinks/ts.Sats
		g.addLink(p, sink, cap, delay, queueBits)
	}
	return g
}

// eclipseFractionAt returns the fraction of the orbit a satellite spends
// in Earth shadow at the given altitude, and the orbital period, for the
// fault layer's eclipse sweep. A mid-inclination plane near equinox is
// representative of the paper's study constellation.
func eclipseFractionAt(altKm float64) (frac float64, periodSec float64) {
	el := orbit.CircularLEO(altKm, 0.9, 0, 0, eclipseEpoch)
	period := el.Period()
	frac = orbit.EclipseFraction(el, eclipseEpoch, period, period/240)
	return frac, period.Seconds()
}
