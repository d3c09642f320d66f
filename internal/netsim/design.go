package netsim

import (
	"fmt"
	"slices"

	"spacedc/internal/isl"
	"spacedc/internal/orbit"
)

// MaxDesignNodes caps the node population (satellites plus sinks) of
// every TopologySpec: Validate rejects a larger spec before any graph is
// allocated, so neither a mutated planes×sats-per-plane pair from the
// optimizer nor a daemon request can overflow a count or ask the simulator
// for a multi-million-node graph.
const MaxDesignNodes = 1 << 20

// DesignError is the typed rejection for structurally invalid candidate
// designs. Candidate evaluation must distinguish "this design is
// impossible" (skip it, never score it) from an internal simulator fault,
// so the construction path returns *DesignError for the former.
type DesignError struct {
	// Field names the design axis that failed validation.
	Field string
	// Reason says why.
	Reason string
}

func (e *DesignError) Error() string {
	return fmt.Sprintf("netsim: invalid design: %s: %s", e.Field, e.Reason)
}

func designErrf(field, format string, args ...any) *DesignError {
	return &DesignError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// DesignTopology builds the per-plane TopologySpec for one candidate
// constellation design, validating the planes×sats-per-plane bounds and
// the ISL budget before any graph exists. It is the construction path the
// design-space optimizer evaluates candidates through; unlike the serving
// layer's lenient spec decoding (which clamps a zero K to a ring), it
// REJECTS degenerate designs with a *DesignError. A zero-ISL-budget
// design (k = 0) would otherwise build an empty-fabric graph that ships
// nothing and — at zero marginal cost — scores an infinite
// goodput-per-dollar objective, silently winning the search.
//
// Cluster designs set geoSinks = 0; GEO-star designs set k = 0, split = 0
// and geoSinks ≥ 1. The returned spec describes ONE plane of the design
// (the in-plane cluster formation is per-plane; a GEO star serves each
// plane's block of satellites through its shared sinks), so callers scale
// per-plane results by the plane count.
func DesignTopology(planes, satsPerPlane int, altKm float64, k, split, geoSinks int, tech isl.LinkTech) (TopologySpec, error) {
	if planes < 1 {
		return TopologySpec{}, designErrf("planes", "need ≥ 1, got %d", planes)
	}
	if satsPerPlane < 1 {
		return TopologySpec{}, designErrf("sats-per-plane", "need ≥ 1, got %d", satsPerPlane)
	}
	// Overflow-safe population bound: check with division before
	// multiplying.
	if satsPerPlane > MaxDesignNodes/planes {
		return TopologySpec{}, designErrf("planes×sats-per-plane",
			"%d×%d exceeds the %d-node design ceiling", planes, satsPerPlane, MaxDesignNodes)
	}
	if !(altKm > 0) || altKm > 100e3 {
		return TopologySpec{}, designErrf("altitude", "need 0 < alt ≤ 100000 km, got %v", altKm)
	}
	if tech.Capacity <= 0 {
		return TopologySpec{}, designErrf("link-tech", "non-positive capacity %v", tech.Capacity)
	}

	ts := TopologySpec{
		Sats:     satsPerPlane,
		Cluster:  isl.Topology{K: k, Split: split},
		Tech:     tech,
		LowAltKm: altKm,
	}
	sinks := split
	if geoSinks > 0 {
		if k != 0 || split != 0 {
			return TopologySpec{}, designErrf("topology",
				"GEO-star design cannot also carry a cluster fabric (k=%d split=%d)", k, split)
		}
		if altKm >= orbit.GeostationaryAltitudeKm {
			return TopologySpec{}, designErrf("altitude", "GEO-star design needs alt < %v km, got %v",
				orbit.GeostationaryAltitudeKm, altKm)
		}
		// The plane's block of satellites; its sinks are shared.
		ts.Kind, ts.GEOSinks = GEOStarTopology, geoSinks
		sinks = ts.geoSinks()
	} else if err := checkCluster("", satsPerPlane, ts.Cluster); err != nil {
		return TopologySpec{}, err
	}
	// The plane's graph adds its sinks to the satellites, which a
	// one-plane design at the ceiling has no room for.
	if satsPerPlane+sinks > MaxDesignNodes {
		return TopologySpec{}, designErrf("planes×sats-per-plane",
			"%d satellites and %d sinks per plane exceed the %d-node design ceiling", satsPerPlane, sinks, MaxDesignNodes)
	}
	return ts, nil
}

// checkCluster is the per-plane cluster check DesignTopology and
// DesignShells share: an even receiver fan-in K ≥ 2 (k = 0 is the
// zero-ISL-budget degenerate case), at least one SµDC, and enough
// satellites to populate Split sinks × K receivers. Field names start with
// prefix, so a stack's rejections name their shell.
func checkCluster(prefix string, sats int, cl isl.Topology) error {
	if cl.K < 2 || cl.K%2 != 0 {
		return designErrf(prefix+"isl-budget",
			"cluster fabric needs an even receiver fan-in K ≥ 2, got %d (a zero-ISL design ships nothing)", cl.K)
	}
	if cl.Split < 1 {
		return designErrf(prefix+"split", "need ≥ 1 SµDC per plane, got %d", cl.Split)
	}
	// Division form: K·Split can overflow for adversarial values.
	if cl.Split > sats/cl.K {
		return designErrf(prefix+"sats-per-plane",
			"%d satellites cannot populate %d sinks × %d receivers", sats, cl.Split, cl.K)
	}
	return nil
}

// DesignShells builds the per-plane multi-shell TopologySpec for a
// candidate shell stack, applying DesignTopology's cluster checks to every
// shell plus the stack-level bounds (cumulative node ceiling, cross-link
// budget within the smaller shell). Each shell's Sats is its per-plane
// population. Like DesignTopology it REJECTS degenerate stacks with a
// typed *DesignError — never a panic and never a spec whose Validate would
// fail — which the fuzz suite pins down against adversarial counts and
// non-finite altitudes. All shells share the inter rule and crossLinks
// budget (0 = one pair per satellite of the smaller shell of each adjacent
// pair).
func DesignShells(shells []ShellSpec, inter InterShellKind, crossLinks int, tech isl.LinkTech) (TopologySpec, error) {
	if len(shells) < 1 {
		return TopologySpec{}, designErrf("shells", "need ≥ 1 shell, got %d", len(shells))
	}
	if tech.Capacity <= 0 {
		return TopologySpec{}, designErrf("link-tech", "non-positive capacity %v", tech.Capacity)
	}
	if inter != InterShellAligned && inter != InterShellNearest {
		return TopologySpec{}, designErrf("inter-shell", "unknown rule kind %d", int(inter))
	}
	if crossLinks < 0 {
		return TopologySpec{}, designErrf("cross-links", "need ≥ 0, got %d", crossLinks)
	}
	ts := TopologySpec{Kind: ClusterTopology, Tech: tech, Shells: slices.Clone(shells)}
	totalNodes := 0
	for i, sh := range shells {
		field := fmt.Sprintf("shell[%d].", i)
		if sh.Sats < 1 {
			return TopologySpec{}, designErrf(field+"sats-per-plane", "need ≥ 1, got %d", sh.Sats)
		}
		// Per-shell cap before accumulating, so adversarial counts near
		// MaxInt cannot overflow the running total below.
		if sh.Sats > MaxDesignNodes {
			return TopologySpec{}, designErrf(field+"sats-per-plane",
				"%d exceeds the %d-node design ceiling", sh.Sats, MaxDesignNodes)
		}
		if !(sh.AltKm > 0) || sh.AltKm > 100e3 {
			return TopologySpec{}, designErrf(field+"altitude", "need 0 < alt ≤ 100000 km, got %v", sh.AltKm)
		}
		if err := checkCluster(field, sh.Sats, sh.Cluster); err != nil {
			return TopologySpec{}, err
		}
		totalNodes += sh.Sats + sh.Cluster.Split
		if totalNodes > MaxDesignNodes {
			return TopologySpec{}, designErrf("shells",
				"stack exceeds the %d-node design ceiling at shell %d", MaxDesignNodes, i)
		}
	}
	for i := 0; i+1 < len(shells); i++ {
		minSats := min(shells[i].Sats, shells[i+1].Sats)
		if crossLinks > minSats {
			return TopologySpec{}, designErrf("cross-links",
				"budget %d exceeds the %d satellites of the smaller shell in pair %d–%d",
				crossLinks, minSats, i, i+1)
		}
		ts.InterShell = append(ts.InterShell, InterShellRule{Kind: inter, CrossLinks: crossLinks})
	}
	return ts, nil
}
