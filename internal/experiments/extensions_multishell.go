package experiments

import (
	"fmt"

	"spacedc/internal/isl"
	"spacedc/internal/netsim"
	"spacedc/internal/report"
	"spacedc/internal/units"
)

var _ = register("ext-multishell", "multi-shell constellations: shell count × inter-shell topology × fault campaign", ExtMultishell)

// multishellShellSats is the tapered shell population: higher shells carry
// fewer satellites (coverage thins with altitude), which also makes the
// aligned and nearest cross-link rules genuinely different pairings.
var multishellShellSats = []int{16, 12, 8}

// multishellSpec stacks `shells` tapered K=4 clusters at 550 + 250·i km,
// wired by the given inter-shell rule (one cross-link pair per satellite
// of the smaller shell).
func multishellSpec(shells int, kind netsim.InterShellKind) netsim.TopologySpec {
	ts := netsim.TopologySpec{Kind: netsim.ClusterTopology, Tech: isl.Optical10G}
	for i := 0; i < shells; i++ {
		ts.Shells = append(ts.Shells, netsim.ShellSpec{
			Sats:    multishellShellSats[i],
			Cluster: isl.Topology{K: 4, Split: 1},
			AltKm:   550 + 250*float64(i),
		})
		if i > 0 {
			ts.InterShell = append(ts.InterShell, netsim.InterShellRule{Kind: kind})
		}
	}
	return ts
}

// ExtMultishell sweeps the multi-shell topology driver over a shell-count ×
// inter-shell-topology × fault-campaign grid: 1–3 shells of the 16-sat K=4
// cluster (each shell at its own altitude with its own eclipse/orbital
// geometry), index-aligned vs nearest-phase cross-links, under no faults, a
// 5% link-outage regime, and whole-satellite failures. Cross-shell links
// give traffic a detour through the neighboring shell when its own fabric
// is cut, which shows up as delivery ratio recovered per added shell.
func ExtMultishell() ([]report.Table, error) {
	t := report.Table{
		ID:    "ext-multishell",
		Title: "Multi-shell constellations: tapered 16/12/8-sat K=4 shells at 550+250i km with inter-shell ISLs (10 Gbit/s, 1 Gbit/s per sat)",
		Note: "cross-links pair satellites between adjacent shells (aligned: by index; nearest: by orbital phase); " +
			"cross-link capacity derates with the altitude gap and latency is gap/c",
		Columns: []string{"design", "faults", "sats", "cross links", "delivered", "ratio",
			"p95 latency (s)", "route repairs", "drops"},
	}
	type design struct {
		name   string
		shells int
		kind   netsim.InterShellKind
	}
	designs := []design{
		{"1-shell", 1, netsim.InterShellAligned},
		{"2-shell/aligned", 2, netsim.InterShellAligned},
		{"2-shell/nearest", 2, netsim.InterShellNearest},
		{"3-shell/aligned", 3, netsim.InterShellAligned},
		{"3-shell/nearest", 3, netsim.InterShellNearest},
	}
	campaigns := []struct {
		name   string
		faults netsim.FaultConfig
	}{
		{"none", netsim.FaultConfig{}},
		{"link-5%", netsim.FaultConfig{LinkOutage: 0.05, LinkMTTRSec: 30}},
		{"sat-fail", netsim.FaultConfig{SatMTBFSec: 300, SatMTTRSec: 60}},
	}

	type rowMeta struct {
		design, campaign string
		sats, cross      int
	}
	var scenarios []netsim.Scenario
	var metas []rowMeta
	for _, d := range designs {
		spec := multishellSpec(d.shells, d.kind)
		g, err := netsim.BuildGraph(spec)
		if err != nil {
			return nil, err
		}
		for _, c := range campaigns {
			scenarios = append(scenarios, netsim.Scenario{
				Name:        d.name + "/" + c.name,
				Topology:    spec,
				PerSat:      units.Gbps,
				SegmentBits: 10e6,
				StepSec:     0.1,
				EpochSec:    30,
				DurationSec: 60,
				WarmupSec:   10,
				Faults:      c.faults,
				Seed:        1,
			})
			metas = append(metas, rowMeta{
				design: d.name, campaign: c.name,
				sats: spec.TotalSats(), cross: g.CrossShellLinks(),
			})
		}
	}
	// Sweep fans the grid over the shared pool with ID-ordered reassembly, so
	// the table is bit-identical at any -workers count.
	for i, sr := range netsim.Sweep(scenarios, 0) {
		if sr.Err != nil {
			return nil, sr.Err
		}
		r := sr.Result
		m := metas[i]
		t.AddRow(m.design, m.campaign, m.sats, m.cross,
			r.DeliveredRate.String(),
			fmt.Sprintf("%.3f", r.DeliveryRatio),
			fmt.Sprintf("%.2f", r.LatencySec.P95),
			r.RouteRepairs,
			r.LinkDrops+r.NoRouteDrops)
	}
	return []report.Table{t}, nil
}
