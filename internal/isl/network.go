package isl

import (
	"fmt"
	"math"

	"spacedc/internal/units"
)

// This file builds the ring/k-list networks explicitly — nodes, links, and
// routed flows. It is the reference the tests check the closed-form
// capacity model against: the analytic SupportableEOSats formula says how
// many satellites a SµDC can ingest; the explicit network shows *which*
// link saturates and what every relay carries.

// NodeKind distinguishes EO satellites from SµDCs in a network.
type NodeKind int

// Node kinds.
const (
	EONode NodeKind = iota
	SuDCNode
)

// Node is one spacecraft in the cluster network.
type Node struct {
	Index int
	Kind  NodeKind
	// ChainPos is the node's position along its relay chain: 1 = adjacent
	// to the SµDC. 0 for the SµDC itself.
	ChainPos int
}

// Link is a directed ISL carrying aggregated EO data toward a SµDC.
type Link struct {
	From, To int // node indices
	// Load is the steady-state data rate the link carries.
	Load units.DataRate
	// SpanHops is the number of adjacent-satellite spacings the link
	// crosses (k/2 for a k-list chain link).
	SpanHops int
}

// Network is one cluster: a SµDC fed by chains of EO satellites.
type Network struct {
	Topology   Topology
	Nodes      []Node
	Links      []Link
	PerSatRate units.DataRate
	LinkCap    units.DataRate
}

// BuildCluster constructs the explicit relay network for one SµDC serving
// n EO satellites under the given topology: the satellites are divided
// round-robin over the K chains (K/2 in each orbital direction), and every
// satellite forwards its own data plus everything upstream of it.
func BuildCluster(n int, topo Topology, perSat, linkCap units.DataRate) (*Network, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if n < 0 {
		return nil, fmt.Errorf("isl: negative satellite count %d", n)
	}
	net := &Network{
		Topology:   topo,
		PerSatRate: perSat,
		LinkCap:    linkCap,
	}
	net.Nodes = append(net.Nodes, Node{Index: 0, Kind: SuDCNode})

	// Chain lengths: distribute n satellites over K chains as evenly as
	// possible (the paper's k-list: K receivers, so K chains).
	k := topo.K
	chainLen := make([]int, k)
	for i := 0; i < n; i++ {
		chainLen[i%k]++
	}

	idx := 1
	for c := 0; c < k; c++ {
		prev := 0 // chain starts at the SµDC
		for pos := 1; pos <= chainLen[c]; pos++ {
			net.Nodes = append(net.Nodes, Node{Index: idx, Kind: EONode, ChainPos: pos})
			// Data flows from this node toward the SµDC via prev. The
			// link from node idx to prev carries this node's data plus
			// everything behind it on the chain.
			upstream := chainLen[c] - pos // satellites further out
			load := units.DataRate(float64(perSat) * float64(1+upstream))
			net.Links = append(net.Links, Link{
				From: idx, To: prev,
				Load:     load,
				SpanHops: k / 2,
			})
			prev = idx
			idx++
		}
	}
	return net, nil
}

// MaxLinkLoad returns the heaviest link load — in a chain topology, always
// the links adjacent to the SµDC.
func (n *Network) MaxLinkLoad() units.DataRate {
	var max units.DataRate
	for _, l := range n.Links {
		if l.Load > max {
			max = l.Load
		}
	}
	return max
}

// Saturated reports whether any link exceeds capacity.
func (n *Network) Saturated() bool {
	return n.MaxLinkLoad() > n.LinkCap
}

// IngestRate returns the total rate delivered to the SµDC (the sum of
// loads on links terminating at node 0) — by flow conservation this must
// equal satellites × perSatRate.
func (n *Network) IngestRate() units.DataRate {
	var total units.DataRate
	for _, l := range n.Links {
		if l.To == 0 {
			total += l.Load
		}
	}
	return total
}

// EOCount returns the number of EO satellites in the network.
func (n *Network) EOCount() int {
	count := 0
	for _, node := range n.Nodes {
		if node.Kind == EONode {
			count++
		}
	}
	return count
}

// CheckFlowConservation verifies that every relay forwards exactly what it
// receives plus its own generation — the structural invariant of the
// chain-routing construction.
func (n *Network) CheckFlowConservation() error {
	// incoming[i] = sum of loads on links into node i.
	incoming := make(map[int]units.DataRate)
	outgoing := make(map[int]units.DataRate)
	for _, l := range n.Links {
		incoming[l.To] += l.Load
		outgoing[l.From] += l.Load
	}
	for _, node := range n.Nodes {
		if node.Kind != EONode {
			continue
		}
		want := incoming[node.Index] + n.PerSatRate
		got := outgoing[node.Index]
		if math.Abs(float64(got-want)) > 1e-6*math.Max(float64(want), 1) {
			return fmt.Errorf("isl: node %d forwards %v, want %v", node.Index, got, want)
		}
	}
	if in, want := n.IngestRate(), units.DataRate(float64(n.PerSatRate)*float64(n.EOCount())); math.Abs(float64(in-want)) > 1e-6*math.Max(float64(want), 1) {
		return fmt.Errorf("isl: SµDC ingests %v, constellation generates %v", in, want)
	}
	return nil
}

// MaxSupportableBySimulation finds, by explicit construction, the largest
// satellite count the topology supports without saturating a link. It
// cross-validates the closed-form SupportableEOSats.
func MaxSupportableBySimulation(topo Topology, perSat, linkCap units.DataRate, searchLimit int) (int, error) {
	if perSat <= 0 {
		return 0, fmt.Errorf("isl: non-positive per-satellite rate %v", perSat)
	}
	best := 0
	for n := 1; n <= searchLimit; n++ {
		net, err := BuildCluster(n, topo, perSat, linkCap)
		if err != nil {
			return 0, err
		}
		if net.Saturated() {
			break
		}
		best = n
	}
	return best, nil
}
