package netsim

import (
	"errors"
	"math"
	"testing"

	"spacedc/internal/isl"
	"spacedc/internal/units"
)

// TestDesignTopologyRejectsDegenerate is the regression test for the
// candidate-evaluation hole: designs with no ISL budget or impossible
// planes×sats-per-plane bounds must come back as typed *DesignError, not
// as a buildable spec whose empty-fabric run scores 0 goodput at 0 cost.
func TestDesignTopologyRejectsDegenerate(t *testing.T) {
	tech := isl.Optical10G
	cases := []struct {
		name               string
		planes, sats       int
		alt                float64
		k, split, geoSinks int
		field              string
	}{
		{"zero planes", 0, 16, 550, 2, 1, 0, "planes"},
		{"negative planes", -3, 16, 550, 2, 1, 0, "planes"},
		{"zero sats", 2, 0, 550, 2, 1, 0, "sats-per-plane"},
		{"population overflow", 1 << 11, 1 << 11, 550, 2, 1, 0, "planes×sats-per-plane"},
		{"overflow-safe product", 1 << 31, 1 << 31, 550, 2, 1, 0, "planes×sats-per-plane"},
		{"zero altitude", 2, 16, 0, 2, 1, 0, "altitude"},
		{"negative altitude", 2, 16, -550, 2, 1, 0, "altitude"},
		{"NaN-free absurd altitude", 2, 16, 1e9, 2, 1, 0, "altitude"},
		{"zero ISL budget", 2, 16, 550, 0, 1, 0, "isl-budget"},
		{"odd K", 2, 16, 550, 3, 1, 0, "isl-budget"},
		{"negative K", 2, 16, 550, -2, 1, 0, "isl-budget"},
		{"zero split", 2, 16, 550, 4, 0, 0, "split"},
		{"under-populated fabric", 2, 7, 550, 4, 2, 0, "sats-per-plane"},
		{"GEO with cluster fabric", 2, 16, 550, 2, 1, 3, "topology"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DesignTopology(tc.planes, tc.sats, tc.alt, tc.k, tc.split, tc.geoSinks, tech)
			var de *DesignError
			if !errors.As(err, &de) {
				t.Fatalf("got err %v, want *DesignError", err)
			}
			if de.Field != tc.field {
				t.Fatalf("rejected on field %q, want %q (reason: %s)", de.Field, tc.field, de.Reason)
			}
		})
	}

	// Zero-capacity tech is a model error, also typed.
	_, err := DesignTopology(2, 16, 550, 2, 1, 0, isl.LinkTech{})
	var de *DesignError
	if !errors.As(err, &de) || de.Field != "link-tech" {
		t.Fatalf("zero-capacity tech: got %v", err)
	}

	// Stacks name the failing shell; stack-level fields stay bare.
	ring := func(sats int, alt float64) ShellSpec { return ShellSpec{Sats: sats, Cluster: isl.Ring, AltKm: alt} }
	for _, tc := range []struct {
		name       string
		shells     []ShellSpec
		crossLinks int
		field      string
	}{
		{"odd K in shell 1", []ShellSpec{ring(16, 550), {Sats: 16, Cluster: isl.Topology{K: 3, Split: 1}, AltKm: 800}}, 0, "shell[1].isl-budget"},
		{"cross-links over the smaller shell", []ShellSpec{ring(16, 550), ring(8, 800)}, 9, "cross-links"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DesignShells(tc.shells, InterShellAligned, tc.crossLinks, tech)
			var de *DesignError
			if !errors.As(err, &de) || de.Field != tc.field {
				t.Fatalf("got err %v, want a *DesignError on field %q", err, tc.field)
			}
		})
	}
}

// TestValidateRejectsNonFiniteLinks is the regression test for link
// capacities and queue depths that slip past sign checks: a NaN or +Inf
// must fail Validate, and so BuildGraph, with a *DesignError instead of
// building links whose capacity or queue limit is not a number.
func TestValidateRejectsNonFiniteLinks(t *testing.T) {
	for _, tc := range []struct {
		name  string
		edit  func(*TopologySpec)
		field string
	}{
		{"NaN capacity", func(ts *TopologySpec) { ts.Tech.Capacity = units.DataRate(math.NaN()) }, "link-tech"},
		{"+Inf capacity", func(ts *TopologySpec) { ts.Tech.Capacity = units.DataRate(math.Inf(1)) }, "link-tech"},
		{"NaN queue depth", func(ts *TopologySpec) { ts.QueueSec = math.NaN() }, "queue"},
		{"+Inf queue depth", func(ts *TopologySpec) { ts.QueueSec = math.Inf(1) }, "queue"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := TopologySpec{Sats: 8, Cluster: isl.Ring, Tech: isl.Optical10G, QueueSec: 1}
			tc.edit(&ts)
			_, buildErr := BuildGraph(ts)
			for name, err := range map[string]error{"Validate": ts.Validate(), "BuildGraph": buildErr} {
				var de *DesignError
				if !errors.As(err, &de) || de.Field != tc.field {
					t.Errorf("%s: got err %v, want a *DesignError on field %q", name, err, tc.field)
				}
			}
		})
	}
}

// TestDesignTopologyBuildsValid asserts accepted designs produce specs
// that validate, build, and actually run with non-degenerate results —
// the other half of the regression: a valid candidate must not be starved
// by the stricter construction path.
func TestDesignTopologyBuildsValid(t *testing.T) {
	tech := isl.Optical10G

	cluster, err := DesignTopology(3, 16, 550, 4, 2, 0, tech)
	if err != nil {
		t.Fatalf("cluster design rejected: %v", err)
	}
	if cluster.Kind != ClusterTopology || cluster.Sats != 16 ||
		cluster.Cluster.K != 4 || cluster.Cluster.Split != 2 || cluster.LowAltKm != 550 {
		t.Fatalf("cluster spec mismatch: %+v", cluster)
	}

	geo, err := DesignTopology(3, 16, 550, 0, 0, 3, tech)
	if err != nil {
		t.Fatalf("GEO design rejected: %v", err)
	}
	if geo.Kind != GEOStarTopology || geo.GEOSinks != 3 || geo.Sats != 16 {
		t.Fatalf("GEO spec mismatch: %+v", geo)
	}

	for name, spec := range map[string]TopologySpec{"cluster": cluster, "geo": geo} {
		sc := Scenario{
			Name:        name,
			Topology:    spec,
			PerSat:      100 * units.Mbps,
			StepSec:     0.2,
			EpochSec:    30,
			DurationSec: 30,
		}
		res, err := Run(sc)
		if err != nil {
			t.Fatalf("%s: run failed: %v", name, err)
		}
		if res.DeliveredRate <= 0 {
			t.Fatalf("%s: degenerate run delivered nothing: %+v", name, res)
		}
	}
}
