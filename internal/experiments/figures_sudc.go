package experiments

import (
	"errors"
	"fmt"
	"math"
	"time"

	"spacedc/internal/apps"
	"spacedc/internal/core"
	"spacedc/internal/datagen"
	"spacedc/internal/gpusim"
	"spacedc/internal/isl"
	"spacedc/internal/orbit"
	"spacedc/internal/report"
)

var _ = register("fig8", "on-satellite compute power needed vs early discard", Fig8)

// Fig8 reproduces Fig 8: the compute power one EO satellite must carry to
// run each application on a Jetson AGX Xavier, across resolutions and
// early-discard rates.
func Fig8() ([]report.Table, error) {
	var tables []report.Table
	for _, ed := range datagen.StandardDiscardRates {
		t := report.Table{
			ID:      "fig8",
			Title:   fmt.Sprintf("On-satellite compute power needed (Jetson AGX Xavier, %.0f%% early discard)", ed*100),
			Note:    "satellite classes (Table 7): picosat ≤10 W, cubesat ≤30 W, microsat ≤210 W, smallsat ≤6.6 kW",
			Columns: []string{"app"},
		}
		for _, res := range datagen.StandardResolutions {
			t.Columns = append(t.Columns, datagen.ResolutionLabel(res))
		}
		for _, id := range apps.IDs() {
			row := []interface{}{string(id)}
			for _, res := range datagen.StandardResolutions {
				p, err := core.SatellitePowerNeeded(id, gpusim.JetsonXavier, datagen.Default4K, res, ed)
				if err != nil {
					if errors.Is(err, gpusim.ErrUnsupported) {
						row = append(row, "x")
						continue
					}
					return nil, err
				}
				row = append(row, p.String())
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

// sweepSuDCTable renders a Fig 9/14/16-style sweep for a SµDC design.
func sweepSuDCTable(id, title, note string, s core.SuDC) (report.Table, error) {
	t := report.Table{ID: id, Title: title, Note: note, Columns: []string{"app"}}
	for _, res := range datagen.StandardResolutions {
		for _, ed := range datagen.StandardDiscardRates {
			t.Columns = append(t.Columns, fmt.Sprintf("%s/%.0f%%", datagen.ResolutionLabel(res), ed*100))
		}
	}
	for _, appID := range apps.IDs() {
		row := []interface{}{string(appID)}
		for _, res := range datagen.StandardResolutions {
			for _, ed := range datagen.StandardDiscardRates {
				w := core.Workload{App: appID, Mission: Mission64, ResolutionM: res, EarlyDiscard: ed}
				n, err := core.SuDCsNeeded(w, s)
				if err != nil {
					return report.Table{}, err
				}
				row = append(row, n)
			}
		}
		t.AddRow(row...)
	}
	return t, nil
}

var _ = register("fig9", "per-application compute power at energy-optimal batch", Fig9)

// Fig9 reproduces Fig 9: the number of RTX 3090-based 4 kW SµDCs needed
// per application across resolutions and early-discard rates.
func Fig9() ([]report.Table, error) {
	t, err := sweepSuDCTable("fig9",
		"4 kW SµDCs needed (RTX 3090), 64-satellite constellation",
		"headline: at 1 m / 95% ED a single SµDC supports all apps except PS", core.Default4kW())
	if err != nil {
		return nil, err
	}
	return []report.Table{t}, nil
}

var _ = register("fig14", "per-application compute power on GPU vs TPU-class devices", Fig14)

// Fig14 reproduces Fig 14: the same sweep with Qualcomm Cloud AI 100
// compute (18.25× the RTX 3090's energy efficiency).
func Fig14() ([]report.Table, error) {
	s := core.Default4kW()
	s.Device = gpusim.CloudAI100
	s.Name = "SµDC-4kW-AI100"
	t, err := sweepSuDCTable("fig14",
		"4 kW SµDCs needed (Qualcomm Cloud AI 100)",
		"energy-efficiency-focused architectures support more apps at finer resolutions", s)
	if err != nil {
		return nil, err
	}
	return []report.Table{t}, nil
}

var _ = register("fig16", "per-application energy per frame across devices", Fig16)

// Fig16 reproduces Fig 16: the impact of radiation-hardening strategy on
// SµDC count (software 20% overhead vs 2× and 3× redundancy).
func Fig16() ([]report.Table, error) {
	var tables []report.Table
	for _, h := range []core.Hardening{core.SoftwareHardening, core.DualRedundant, core.TripleRedundant} {
		s := core.Default4kW()
		s.Hardening = h
		t, err := sweepSuDCTable("fig16",
			fmt.Sprintf("4 kW SµDCs needed with %v hardening (RTX 3090)", h),
			"at coarse resolutions hardening is free; at fine resolutions redundancy multiplies the fleet", s)
		if err != nil {
			return nil, err
		}
		tables = append(tables, t)
	}
	return tables, nil
}

var _ = register("fig11", "clusters needed vs ISL capacity (ring topology)", Fig11)

// Fig11 reproduces Fig 11: clusters needed versus ISL capacity for 4 kW
// and 256 kW SµDCs in a ring topology, showing where ISL bottlenecks set
// the fleet size.
func Fig11() ([]report.Table, error) {
	const (
		res = 1.0
		ed  = 0.5
	)
	var tables []report.Table
	for _, s := range []core.SuDC{core.Default4kW(), core.StationClass256kW()} {
		t := report.Table{
			ID:    "fig11",
			Title: fmt.Sprintf("Clusters needed vs ISL capacity, %s (ring topology, 1 m / 50%% ED)", s.Name),
			Note:  "clusters = max(compute SµDCs, ISL-limited clusters); * marks ISL-bottlenecked",
			Columns: []string{"app", "compute SµDCs",
				"1 Gbit/s", "10 Gbit/s", "100 Gbit/s"},
		}
		for _, appID := range apps.IDs() {
			w := core.Workload{App: appID, Mission: Mission64, ResolutionM: res, EarlyDiscard: ed}
			row := []interface{}{string(appID)}
			var computeN int
			for i, cap := range isl.Table8Capacities {
				plan, err := core.PlanClusters(w, s, cap, 2)
				if err != nil {
					return nil, err
				}
				if i == 0 {
					computeN = plan.ComputeSuDCs
					row = append(row, computeN)
				}
				cell := fmt.Sprintf("%d", plan.Clusters)
				if plan.Bottleneck == isl.ISLBound {
					cell += "*"
				}
				row = append(row, cell)
			}
			t.AddRow(row...)
		}
		tables = append(tables, t)
	}
	return tables, nil
}

var _ = register("fig13", "ISL capacity and transmit power vs k-list x SuDC splitting", Fig13)

// Fig13 reproduces Fig 13: total ISL communication capacity and transmit
// power for k-list × splitting design points, normalized to a 2-list ring
// without splitting, on a frame-spaced 64-satellite formation.
func Fig13() ([]report.Table, error) {
	geom := isl.FrameSpacedGeometry(550, 12)
	t := report.Table{
		ID:      "fig13",
		Title:   "ISL capacity and transmit power vs k-list × SµDC splitting (frame-spaced formation)",
		Note:    "normalized to ring (k=2, split=1); capacity scales multi-linearly, power quadratically in k",
		Columns: []string{"k", "split", "capacity (norm)", "tx power (norm)", "feasible"},
	}
	for _, k := range []int{2, 4, 8, 16} {
		for _, split := range []int{1, 2, 4} {
			cd := isl.CoDesign{
				Topology:  isl.Topology{K: k, Split: split},
				Geometry:  geom,
				Tech:      isl.Optical10G,
				TotalSats: Mission64.Satellites,
			}
			pt := cd.Fig13Point(orbit.AtmosphereGrazeKm)
			t.AddRow(k, split, pt.CapacityNorm, pt.PowerNorm, pt.Feasible)
		}
	}

	// Companion: the same sweep on an orbit-spaced formation, where large
	// k is geometrically infeasible — the §8 contrast.
	orbitG := isl.OrbitSpacedGeometry(550, Mission64.Satellites)
	t2 := report.Table{
		ID:      "fig13",
		Title:   "Same sweep on an orbit-spaced formation",
		Note:    fmt.Sprintf("max feasible k = %d before links graze the atmosphere", orbitG.MaxK(orbit.AtmosphereGrazeKm)),
		Columns: []string{"k", "split", "capacity (norm)", "tx power (norm)", "feasible"},
	}
	for _, k := range []int{2, 4, 8, 16} {
		for _, split := range []int{1, 2, 4} {
			cd := isl.CoDesign{
				Topology:  isl.Topology{K: k, Split: split},
				Geometry:  orbitG,
				Tech:      isl.Optical10G,
				TotalSats: Mission64.Satellites,
			}
			pt := cd.Fig13Point(orbit.AtmosphereGrazeKm)
			t2.AddRow(k, split, pt.CapacityNorm, pt.PowerNorm, pt.Feasible)
		}
	}
	return []report.Table{t, t2}, nil
}

var _ = register("fig15", "GEO star coverage of the LEO constellation (24 h propagation)", Fig15)

// Fig15 verifies the Fig 15 claim by simulation: three GEO SµDCs spaced
// 120° apart give every LEO EO satellite continuous line of sight to at
// least one of them. It propagates a sample of the 64-satellite ring for a
// day and reports the worst coverage gap and slant-range envelope.
func Fig15() ([]report.Table, error) {
	star := core.NewGEOStar(0, Epoch)
	t := report.Table{
		ID:      "fig15",
		Title:   "GEO star coverage of the LEO constellation (24 h propagation)",
		Note:    "gap 0 s = continuous coverage; slant ranges size the LEO-GEO optical links",
		Columns: []string{"EO satellite", "worst coverage gap", "min range (km)", "max range (km)"},
	}
	geos := star.Propagators()
	for i := 0; i < 8; i++ {
		el := orbit.CircularLEO(550, 53*math.Pi/180, 0, float64(i)*math.Pi/4, Epoch)
		gap, err := star.CoverageGap(el, Epoch, 24*time.Hour, time.Minute)
		if err != nil {
			return nil, err
		}
		minR, maxR := math.Inf(1), 0.0
		leo := orbit.J2Propagator{Elements: el}
		for dt := time.Duration(0); dt < 24*time.Hour; dt += 5 * time.Minute {
			tm := Epoch.Add(dt)
			best := math.Inf(1)
			ls, err := leo.State(tm)
			if err != nil {
				return nil, err
			}
			for _, g := range geos {
				gs, err := g.State(tm)
				if err != nil {
					return nil, err
				}
				if !orbit.LineOfSight(ls.Position, gs.Position, orbit.AtmosphereGrazeKm) {
					continue
				}
				if d := ls.Position.DistanceTo(gs.Position); d < best {
					best = d
				}
			}
			if best < minR {
				minR = best
			}
			if !math.IsInf(best, 1) && best > maxR {
				maxR = best
			}
		}
		t.AddRow(fmt.Sprintf("eo-%02d", i*8), gap.String(), math.Round(minR), math.Round(maxR))
	}
	return []report.Table{t}, nil
}
