package experiments

import (
	"fmt"

	"spacedc/internal/isl"
	"spacedc/internal/netsim"
	"spacedc/internal/report"
	"spacedc/internal/units"
)

var _ = register("ext-netsim", "dynamic network simulation: optical ring under link outages", ExtNetsim)

// NetsimBaseScenario is the reference network for the dynamic-simulation
// study: a 16-satellite optical ring feeding one SµDC at 80% of the
// Table 8 limit, segmented into 10 Mbit transport units. The fault-rate
// sweep perturbs it; the validation benchmark shrinks it.
func NetsimBaseScenario() netsim.Scenario {
	return netsim.Scenario{
		Name: "ring-16",
		Topology: netsim.TopologySpec{
			Kind:    netsim.ClusterTopology,
			Sats:    16,
			Cluster: isl.Ring,
			Tech:    isl.Optical10G,
		},
		PerSat:      units.Gbps, // 16 Gbit/s offered against a 2×10 Gbit/s ring
		SegmentBits: 10e6,
		StepSec:     0.1,
		DurationSec: 120,
		WarmupSec:   20,
		Seed:        1,
	}
}

// ExtNetsim runs the time-stepped flow-level network simulator across a
// link-outage sweep: the static Table 8 capacity picture extended with
// queueing, rerouting, and timeout/backoff retransmission. At 0% outage
// the delivered throughput reproduces the closed-form steady state; under
// outages the ring reroutes around cut links, which doubles the load on
// the surviving direction and surfaces as latency and loss.
func ExtNetsim() ([]report.Table, error) {
	t := report.Table{
		ID:    "ext-netsim",
		Title: "Dynamic network simulation: 16-sat optical ring under link outages (10 Gbit/s ISLs, 1 Gbit/s per sat)",
		Note: "flow-level time-stepped simulation with shortest-path rerouting and exponential-backoff retransmission; " +
			"outage fraction is per-link time down from pointing loss (30 s reacquisition)",
		Columns: []string{"link outage", "offered", "delivered", "ratio",
			"p95 latency (s)", "bottleneck util", "retransmits", "drops"},
	}
	var scenarios []netsim.Scenario
	for _, outage := range []float64{0, 0.01, 0.05} {
		sc := NetsimBaseScenario()
		sc.Name = fmt.Sprintf("outage-%g%%", outage*100)
		sc.Faults = netsim.FaultConfig{LinkOutage: outage, LinkMTTRSec: 30}
		scenarios = append(scenarios, sc)
	}
	// The sweep's per-scenario sub-jobs schedule into the shared pool, the
	// same token budget the sibling experiments draw on, so running this
	// experiment inside a pooled RunWorkers(All) sweep adds parallelism without
	// oversubscribing CPUs — and the ID-ordered reassembly keeps the table
	// bit-identical at any worker count.
	for _, sr := range netsim.Sweep(scenarios, 0) {
		if sr.Err != nil {
			return nil, sr.Err
		}
		r := sr.Result
		t.AddRow(fmt.Sprintf("%.0f%%", sr.Scenario.Faults.LinkOutage*100),
			r.OfferedRate.String(),
			r.DeliveredRate.String(),
			fmt.Sprintf("%.3f", r.DeliveryRatio),
			fmt.Sprintf("%.2f", r.LatencySec.P95),
			fmt.Sprintf("%.2f", r.BottleneckUtil),
			r.Retransmits,
			r.LinkDrops+r.NoRouteDrops)
	}
	return []report.Table{t}, nil
}
