package isl

import (
	"math"
	"testing"
	"testing/quick"

	"spacedc/internal/datagen"
	"spacedc/internal/units"
)

func TestBuildClusterRing(t *testing.T) {
	perSat := 200 * units.Mbps
	net, err := BuildCluster(8, Ring, perSat, 1*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if net.EOCount() != 8 {
		t.Fatalf("EO count %d, want 8", net.EOCount())
	}
	// Ring: two chains of 4; the SµDC-adjacent links each carry 4 sats.
	if got := net.MaxLinkLoad(); math.Abs(float64(got)-4*200e6) > 1 {
		t.Errorf("max link load %v, want 800 Mb/s", got)
	}
	if err := net.CheckFlowConservation(); err != nil {
		t.Error(err)
	}
	if net.Saturated() {
		t.Error("800 Mb/s on 1 Gb/s links should not saturate")
	}
}

func TestBuildClusterSaturation(t *testing.T) {
	perSat := 200 * units.Mbps
	net, err := BuildCluster(12, Ring, perSat, 1*units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	// Chains of 6: limiting link carries 1.2 Gb/s > 1 Gb/s.
	if !net.Saturated() {
		t.Errorf("12 sats × 200 Mb/s on 1 Gb/s ring should saturate (max %v)", net.MaxLinkLoad())
	}
}

func TestSimulationMatchesClosedForm(t *testing.T) {
	// The analytic SupportableEOSats is the splittable-flow optimum (a
	// satellite may stripe its stream across ring directions, so the only
	// binding cut is the k receivers). The explicit network routes each
	// satellite's whole stream down one chain, so it can trail the
	// optimum by at most one satellite per chain — never exceed it.
	for _, res := range datagen.StandardResolutions {
		for _, ed := range datagen.StandardDiscardRates {
			rate := datagen.Default4K.DataRate(res, ed)
			for _, cap := range Table8Capacities {
				for _, k := range []int{2, 4} {
					analytic := SupportableEOSats(cap, rate, k)
					if analytic > 3000 { // keep the search bounded
						continue
					}
					sim, err := MaxSupportableBySimulation(Topology{K: k, Split: 1}, rate, cap, analytic+5)
					if err != nil {
						t.Fatal(err)
					}
					if sim > analytic {
						t.Errorf("res %v ed %v cap %v k %d: simulation %d exceeds max-flow bound %d",
							res, ed, cap, k, sim, analytic)
					}
					if analytic-sim > k {
						t.Errorf("res %v ed %v cap %v k %d: simulation %d trails analytic %d by more than k",
							res, ed, cap, k, sim, analytic)
					}
					// Exact agreement whenever chains quantize evenly.
					perChain := int(float64(cap) / float64(rate))
					if analytic == k*perChain && sim != analytic {
						t.Errorf("res %v ed %v cap %v k %d: even quantization should agree: %d vs %d",
							res, ed, cap, k, sim, analytic)
					}
				}
			}
		}
	}
}

func TestFlowConservationProperty(t *testing.T) {
	f := func(nRaw uint8, kRaw uint8) bool {
		n := int(nRaw % 64)
		k := 2 * (1 + int(kRaw%4)) // 2, 4, 6, 8
		net, err := BuildCluster(n, Topology{K: k, Split: 1}, 100*units.Mbps, units.Gbps)
		if err != nil {
			return false
		}
		return net.CheckFlowConservation() == nil && net.EOCount() == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBuildClusterKListSpan(t *testing.T) {
	net, err := BuildCluster(8, Topology{K: 4, Split: 1}, 100*units.Mbps, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range net.Links {
		if l.SpanHops != 2 {
			t.Errorf("4-list link spans %d hops, want 2", l.SpanHops)
		}
	}
	// 4 chains of 2 → SµDC-adjacent links carry 2 sats each.
	if got := net.MaxLinkLoad(); math.Abs(float64(got)-2*100e6) > 1 {
		t.Errorf("max load %v, want 200 Mb/s", got)
	}
}

func TestBuildClusterDegenerate(t *testing.T) {
	net, err := BuildCluster(0, Ring, 100*units.Mbps, units.Gbps)
	if err != nil {
		t.Fatal(err)
	}
	if net.EOCount() != 0 || net.MaxLinkLoad() != 0 || net.Saturated() {
		t.Error("empty cluster should be trivially unsaturated")
	}
	if _, err := BuildCluster(-1, Ring, 1, 1); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := BuildCluster(4, Topology{K: 3, Split: 1}, 1, 1); err == nil {
		t.Error("odd k accepted")
	}
}

func TestMaxSupportableRejectsBadRate(t *testing.T) {
	if _, err := MaxSupportableBySimulation(Ring, 0, units.Gbps, 10); err == nil {
		t.Error("zero rate accepted")
	}
}
