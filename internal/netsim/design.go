package netsim

import (
	"fmt"
	"slices"

	"spacedc/internal/isl"
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
// constellation design. It is the construction path the design-space
// optimizer evaluates candidates through; unlike the serving layer's
// lenient spec decoding (which clamps a zero K to a ring), it REJECTS
// degenerate designs with a *DesignError. A zero-ISL-budget design (k = 0)
// would otherwise build an empty-fabric graph that ships nothing and — at
// zero marginal cost — scores an infinite goodput-per-dollar objective,
// silently winning the search. It checks only what the spec cannot carry
// (the plane count, the planes×sats-per-plane ceiling, an altitude the
// spec would default, a GEO star that also names a fabric) and returns
// the spec's own Validate verdict for the rest.
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
	// Overflow-safe population bound: check with division before
	// multiplying.
	if satsPerPlane > MaxDesignNodes/planes {
		return TopologySpec{}, designErrf("planes×sats-per-plane",
			"%d×%d exceeds the %d-node design ceiling", planes, satsPerPlane, MaxDesignNodes)
	}
	// A one-plane spec reads altitude 0 as 550 km; a design must name its
	// own.
	if !(altKm > 0) || altKm > 100e3 {
		return TopologySpec{}, designErrf("altitude", "need 0 < alt ≤ 100000 km, got %v", altKm)
	}
	ts := TopologySpec{
		Sats:     satsPerPlane,
		Cluster:  isl.Topology{K: k, Split: split},
		Tech:     tech,
		LowAltKm: altKm,
	}
	if geoSinks > 0 {
		if k != 0 || split != 0 {
			return TopologySpec{}, designErrf("topology",
				"GEO-star design cannot also carry a cluster fabric (k=%d split=%d)", k, split)
		}
		ts.Kind, ts.GEOSinks = GEOStarTopology, geoSinks
	}
	if err := ts.Validate(); err != nil {
		return TopologySpec{}, err
	}
	return ts, nil
}

// DesignShells builds the per-plane multi-shell TopologySpec for a
// candidate shell stack: each shell's Sats is its per-plane population,
// and every adjacent pair shares the inter rule and crossLinks budget (0 =
// one pair per satellite of the smaller shell). Like DesignTopology it
// REJECTS degenerate stacks with a typed *DesignError — never a panic and
// never a spec whose Validate would fail — which the fuzz suite pins down
// against adversarial counts and non-finite altitudes. It checks the rule
// and budget itself, since a one-shell stack carries no rule for Validate
// to see, and returns Validate's verdict for the rest.
func DesignShells(shells []ShellSpec, inter InterShellKind, crossLinks int, tech isl.LinkTech) (TopologySpec, error) {
	if len(shells) < 1 {
		return TopologySpec{}, designErrf("shells", "need ≥ 1 shell, got %d", len(shells))
	}
	if inter != InterShellAligned && inter != InterShellNearest {
		return TopologySpec{}, designErrf("inter-shell", "unknown rule kind %d", int(inter))
	}
	if crossLinks < 0 {
		return TopologySpec{}, designErrf("cross-links", "need ≥ 0, got %d", crossLinks)
	}
	ts := TopologySpec{Kind: ClusterTopology, Tech: tech, Shells: slices.Clone(shells)}
	for range len(shells) - 1 {
		ts.InterShell = append(ts.InterShell, InterShellRule{Kind: inter, CrossLinks: crossLinks})
	}
	if err := ts.Validate(); err != nil {
		return TopologySpec{}, err
	}
	return ts, nil
}
