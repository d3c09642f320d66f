package core

import (
	"math"
	"testing"
	"time"

	"spacedc/internal/apps"
	"spacedc/internal/datagen"
	"spacedc/internal/gpusim"
	"spacedc/internal/isl"
	"spacedc/internal/orbit"
	"spacedc/internal/units"
)

var mission64 = datagen.Mission{Frame: datagen.Default4K, Satellites: 64}

func TestHardeningOverheads(t *testing.T) {
	want := map[Hardening]float64{
		NoHardening: 1, SoftwareHardening: 1.2, DualRedundant: 2, TripleRedundant: 3,
	}
	for h, ov := range want {
		if got := h.ComputeOverhead(); got != ov {
			t.Errorf("%v overhead = %v, want %v", h, got, ov)
		}
	}
	if len(Hardenings()) != 4 {
		t.Error("Fig 16 sweeps 4 hardening strategies")
	}
}

func TestSuDCDefaults(t *testing.T) {
	s := Default4kW()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if s.ComputeBudget != 4*units.Kilowatt || s.Device.Name != "RTX 3090" {
		t.Errorf("default SµDC = %+v", s)
	}
	// Bus overhead per the paper: up to ~1 kW more on a 4 kW design.
	if ov := s.BusOverheadPower(); ov != 1*units.Kilowatt {
		t.Errorf("bus overhead = %v, want 1 kW", ov)
	}
	if tot := s.TotalPower(); tot != 5*units.Kilowatt {
		t.Errorf("total power = %v, want 5 kW (paper: <5 kW)", tot)
	}
	big := StationClass256kW()
	if big.ComputeBudget != 256*units.Kilowatt {
		t.Error("station class should be 256 kW")
	}
}

func TestSuDCValidate(t *testing.T) {
	bad := Default4kW()
	bad.ComputeBudget = 0
	if bad.Validate() == nil {
		t.Error("zero budget accepted")
	}
	bad = Default4kW()
	bad.Device = gpusim.Device{}
	if bad.Validate() == nil {
		t.Error("missing device accepted")
	}
}

func TestWorkloadValidate(t *testing.T) {
	good := Workload{App: apps.FloodDetection, Mission: mission64, ResolutionM: 1, EarlyDiscard: 0.95}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []Workload{
		{App: apps.FloodDetection, Mission: datagen.Mission{Frame: datagen.Default4K}, ResolutionM: 1},
		{App: apps.FloodDetection, Mission: mission64, ResolutionM: 0},
		{App: apps.FloodDetection, Mission: mission64, ResolutionM: 1, EarlyDiscard: 1},
		{App: apps.FloodDetection, Mission: mission64, ResolutionM: 1, EarlyDiscard: -0.1},
	}
	for i, w := range cases {
		if w.Validate() == nil {
			t.Errorf("case %d accepted: %+v", i, w)
		}
	}
}

func TestFig9HeadlineOneSuDCAt1m95ED(t *testing.T) {
	// The paper: "only a single 4 kW SµDC is needed to support all but
	// one application at 1 m with 95% early discard" — the exception is
	// Panoptic Segmentation.
	s := Default4kW()
	exceptions := 0
	for _, id := range apps.IDs() {
		w := Workload{App: id, Mission: mission64, ResolutionM: 1, EarlyDiscard: 0.95}
		n, err := SuDCsNeeded(w, s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if n > 1 {
			exceptions++
			if id != apps.PanopticSeg {
				t.Errorf("%s needs %d SµDCs at 1 m/95%%; paper says only PS exceeds 1", id, n)
			}
		}
	}
	if exceptions != 1 {
		t.Errorf("%d applications exceed one SµDC, want exactly 1 (PS)", exceptions)
	}
}

func TestFig9CoarseResolutionTrivial(t *testing.T) {
	// At 3 m with zero discard a single 4 kW SµDC covers every app except
	// the two heaviest kernels: Aircraft Detection (2) and Panoptic
	// Segmentation (5) — Fig 9's leftmost column.
	s := Default4kW()
	wantMoreThanOne := map[apps.ID]int{apps.AircraftDetect: 2, apps.PanopticSeg: 5}
	for _, id := range apps.IDs() {
		w := Workload{App: id, Mission: mission64, ResolutionM: 3, EarlyDiscard: 0}
		n, err := SuDCsNeeded(w, s)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if want, heavy := wantMoreThanOne[id]; heavy {
			if n != want {
				t.Errorf("%s needs %d SµDCs at 3 m/0%%, want %d", id, n, want)
			}
			continue
		}
		if n > 1 {
			t.Errorf("%s needs %d SµDCs at 3 m/0%%, want 1", id, n)
		}
	}
}

func TestFig9FineResolutionNeedsMany(t *testing.T) {
	// At 10 cm with no discard, heavy DNNs need many 4 kW SµDCs — the
	// paper's "in some cases SµDCs may need to be significantly larger".
	s := Default4kW()
	w := Workload{App: apps.PanopticSeg, Mission: mission64, ResolutionM: 0.1, EarlyDiscard: 0}
	n, err := SuDCsNeeded(w, s)
	if err != nil {
		t.Fatal(err)
	}
	if n < 100 {
		t.Errorf("PS at 10 cm/0%% needs %d SµDCs, want ≫ 100", n)
	}
	// A 256 kW station-class SµDC covers it with ~64× fewer units.
	big, err := SuDCsNeeded(w, StationClass256kW())
	if err != nil {
		t.Fatal(err)
	}
	if big >= n/50 {
		t.Errorf("256 kW SµDC count %d should be ≈64× below 4 kW count %d", big, n)
	}
}

func TestSuDCsNeededMonotonicInDiscard(t *testing.T) {
	s := Default4kW()
	prev := math.MaxInt32
	for _, ed := range []float64{0, 0.5, 0.95, 0.99} {
		w := Workload{App: apps.OilSpill, Mission: mission64, ResolutionM: 0.3, EarlyDiscard: ed}
		n, err := SuDCsNeeded(w, s)
		if err != nil {
			t.Fatal(err)
		}
		if n > prev {
			t.Errorf("more discard (%v) needs more SµDCs (%d > %d)", ed, n, prev)
		}
		prev = n
	}
}

func TestFig14AI100NeedsFewerSuDCs(t *testing.T) {
	// §9: the Cloud AI 100's 18.25× efficiency means far fewer SµDCs at
	// fine resolutions.
	rtx := Default4kW()
	ai := Default4kW()
	ai.Device = gpusim.CloudAI100

	w := Workload{App: apps.AircraftDetect, Mission: mission64, ResolutionM: 0.3, EarlyDiscard: 0.5}
	nRTX, err := SuDCsNeeded(w, rtx)
	if err != nil {
		t.Fatal(err)
	}
	nAI, err := SuDCsNeeded(w, ai)
	if err != nil {
		t.Fatal(err)
	}
	if nAI >= nRTX {
		t.Fatalf("AI 100 (%d) should beat RTX 3090 (%d)", nAI, nRTX)
	}
	ratio := float64(nRTX) / float64(nAI)
	if ratio < 10 {
		t.Errorf("AI 100 advantage = %v×, want ≈18× (ceil effects allowed)", ratio)
	}
}

func TestFig16HardeningImpact(t *testing.T) {
	// Fig 16's pattern: at coarse resolution hardening changes nothing;
	// at fine resolution redundancy multiplies the SµDC count while
	// software hardening barely moves it.
	base := Default4kW()
	sw := base
	sw.Hardening = SoftwareHardening
	dual := base
	dual.Hardening = DualRedundant
	triple := base
	triple.Hardening = TripleRedundant

	coarse := Workload{App: apps.UrbanEmergency, Mission: mission64, ResolutionM: 3, EarlyDiscard: 0.5}
	for _, s := range []SuDC{base, sw, dual, triple} {
		n, err := SuDCsNeeded(coarse, s)
		if err != nil {
			t.Fatal(err)
		}
		if n != 1 {
			t.Errorf("coarse resolution with %v needs %d SµDCs, want 1", s.Hardening, n)
		}
	}

	fine := Workload{App: apps.UrbanEmergency, Mission: mission64, ResolutionM: 0.3, EarlyDiscard: 0.5}
	nBase, _ := SuDCsNeeded(fine, base)
	nSW, _ := SuDCsNeeded(fine, sw)
	nDual, _ := SuDCsNeeded(fine, dual)
	nTriple, _ := SuDCsNeeded(fine, triple)
	if nSW > nBase+int(math.Ceil(0.25*float64(nBase))) {
		t.Errorf("software hardening: %d vs base %d, want ≈20%% more at most", nSW, nBase)
	}
	if nDual < 2*nBase-1 || nTriple < 3*nBase-2 {
		t.Errorf("redundancy scaling wrong: base=%d dual=%d triple=%d", nBase, nDual, nTriple)
	}
}

func TestFig8SatellitePowerShape(t *testing.T) {
	// Fig 8 on the Xavier: at 3 m with no discard, TM fits a picosat
	// budget (<10 W); heavy apps need hundreds of watts at 30 cm
	// ("aircraft detection requires > 400 W of compute per satellite at
	// 30 cm" — paper, at 99% discard it stays high).
	frame := datagen.Default4K
	tm, err := SatellitePowerNeeded(apps.TrafficMonitor, gpusim.JetsonXavier, frame, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tm > 10*units.Watt {
		t.Errorf("TM at 3 m needs %v, want < 10 W (picosat)", tm)
	}
	ad, err := SatellitePowerNeeded(apps.AircraftDetect, gpusim.JetsonXavier, frame, 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ad < 400*units.Watt {
		t.Errorf("AD at 30 cm needs %v, want > 400 W (paper)", ad)
	}
	// Early discard scales power down linearly.
	ad99, err := SatellitePowerNeeded(apps.AircraftDetect, gpusim.JetsonXavier, frame, 0.3, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	if r := float64(ad) / float64(ad99); math.Abs(r-100) > 1 {
		t.Errorf("99%% discard reduced power by %v×, want 100×", r)
	}
}

func TestFig8PSUnsupportedOnXavier(t *testing.T) {
	_, err := SatellitePowerNeeded(apps.PanopticSeg, gpusim.JetsonXavier, datagen.Default4K, 1, 0)
	if err == nil {
		t.Error("PS on Xavier should fail (Table 6: could not be mapped)")
	}
}

func TestSupportedOnBudget(t *testing.T) {
	frame := datagen.Default4K
	// A cubesat (30 W) runs APP at 3 m with some discard.
	ok, err := SupportedOnBudget(apps.AirPollution, gpusim.JetsonXavier, frame, 3, 0.5, 30*units.Watt)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("APP at 3 m/50% should fit a cubesat")
	}
	// But not OSM at 10 cm.
	ok, err = SupportedOnBudget(apps.OilSpill, gpusim.JetsonXavier, frame, 0.1, 0, 30*units.Watt)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("OSM at 10 cm should not fit a cubesat")
	}
}

func TestSweepSuDCsShape(t *testing.T) {
	// The paper sweep: every app at 4 resolutions × 4 discard rates.
	cells := 0
	for _, id := range apps.IDs() {
		for _, res := range datagen.StandardResolutions {
			for _, ed := range datagen.StandardDiscardRates {
				cells++
				w := Workload{App: id, Mission: mission64, ResolutionM: res, EarlyDiscard: ed}
				n, err := SuDCsNeeded(w, Default4kW())
				if err != nil {
					t.Errorf("%s @ %v m / %v: %v", id, res, ed, err)
				}
				if n < 1 {
					t.Errorf("%s @ %v m: %d SµDCs", id, res, n)
				}
			}
		}
	}
	if cells != 10*4*4 {
		t.Fatalf("sweep size %d, want 160", cells)
	}
}

func TestSupportedByOneSuDCMajority(t *testing.T) {
	// Paper abstract: "one 4 kW SµDC can support the computation need of
	// a majority of applications, especially … with early discard."
	n := 0
	for _, id := range apps.IDs() {
		w := Workload{App: id, Mission: mission64, ResolutionM: 1, EarlyDiscard: 0.95}
		if need, err := SuDCsNeeded(w, Default4kW()); err == nil && need <= 1 {
			n++
		}
	}
	if n < 6 {
		t.Errorf("one SµDC supports %d/10 apps at 1 m/95%%, want a majority", n)
	}
}

func TestPlanClustersISLBottleneck(t *testing.T) {
	// Lightweight app (TM) at 30 cm: compute needs few SµDCs but a
	// 1 Gb/s ring cannot even carry one satellite's raw stream —
	// ISL-bottlenecked (Fig 11's left panel behavior).
	w := Workload{App: apps.TrafficMonitor, Mission: mission64, ResolutionM: 0.3, EarlyDiscard: 0.5}
	plan, err := PlanClusters(w, Default4kW(), 1*units.Gbps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Bottleneck != isl.ISLBound {
		t.Errorf("TM at 30 cm on 1 Gb/s should be ISL-bottlenecked: %+v", plan)
	}
	if plan.Clusters < plan.ComputeSuDCs {
		t.Error("clusters must cover compute need")
	}

	// With 100 Gb/s links at 3 m the bottleneck disappears.
	w3 := Workload{App: apps.TrafficMonitor, Mission: mission64, ResolutionM: 3, EarlyDiscard: 0.5}
	plan3, err := PlanClusters(w3, Default4kW(), 100*units.Gbps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan3.Bottleneck != isl.ComputeBound {
		t.Errorf("TM at 3 m on 100 Gb/s should be compute-bound: %+v", plan3)
	}
	if plan3.Clusters != plan3.ComputeSuDCs {
		t.Error("unbottlenecked cluster count should equal compute count")
	}
}

func TestHighPowerSuDCsMoreLikelyISLBottlenecked(t *testing.T) {
	// §7: "high power SµDCs are more likely to be ISL-bottlenecked than
	// low power SµDCs."
	w := Workload{App: apps.FloodDetection, Mission: mission64, ResolutionM: 1, EarlyDiscard: 0.5}
	small, err := PlanClusters(w, Default4kW(), 10*units.Gbps, 2)
	if err != nil {
		t.Fatal(err)
	}
	big, err := PlanClusters(w, StationClass256kW(), 10*units.Gbps, 2)
	if err != nil {
		t.Fatal(err)
	}
	if big.Bottleneck != isl.ISLBound {
		t.Errorf("256 kW SµDC should be ISL-bottlenecked: %+v", big)
	}
	// The big SµDC needs fewer compute units but at least as many clusters.
	if big.ComputeSuDCs >= small.ComputeSuDCs && small.ComputeSuDCs > 1 {
		t.Errorf("256 kW should need fewer compute SµDCs: %d vs %d", big.ComputeSuDCs, small.ComputeSuDCs)
	}
	if big.Clusters < big.ComputeSuDCs {
		t.Error("cluster count must cover compute")
	}
}

func TestGEOStarContinuousCoverage(t *testing.T) {
	// Fig 15: three GEO SµDCs 120° apart cover every LEO satellite at all
	// times. Verified by propagating a 64-sat ring for a day.
	epoch := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	star := NewGEOStar(0, epoch)
	var sats []orbit.Elements
	for i := 0; i < 8; i++ { // every 8th satellite of the 64-ring
		sats = append(sats, orbit.CircularLEO(550, 53*math.Pi/180, 0, float64(i)*math.Pi/4, epoch))
	}
	worst, err := star.VerifyContinuousCoverage(sats, epoch, 24*time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if worst > 0 {
		t.Errorf("worst coverage gap = %v, want 0 (Fig 15 guarantee)", worst)
	}
}

func TestPlacementProperties(t *testing.T) {
	if GEO.TypicalEclipseFraction() >= LEOInPlane.TypicalEclipseFraction() {
		t.Error("GEO eclipses far less than LEO")
	}
}

func TestSolarArraySizing(t *testing.T) {
	leo := Default4kW()
	geo := Default4kW()
	geo.Placement = GEO
	// LEO: 5 kW load / (1 - 1/3) = 7.5 kW array. GEO: ≈5.05 kW.
	if got := leo.SolarArrayPower(); math.Abs(float64(got)-7500) > 1 {
		t.Errorf("LEO array = %v, want 7.5 kW", got)
	}
	if got := geo.SolarArrayPower(); float64(got) > 5200 {
		t.Errorf("GEO array = %v, want ≈5.05 kW", got)
	}
	// Exact-orbit version: a GEO SµDC at a solstice needs almost no
	// eclipse margin.
	solstice := time.Date(2026, 6, 21, 0, 0, 0, 0, time.UTC)
	el := orbit.Geostationary(0, solstice)
	exact := geo.SolarArrayPowerAt(el, solstice)
	if math.Abs(float64(exact)-float64(geo.TotalPower())) > 100 {
		t.Errorf("GEO solstice array = %v, want ≈%v", exact, geo.TotalPower())
	}
}

func TestTable9Shape(t *testing.T) {
	rows := Table9()
	if len(rows) != 4 {
		t.Fatalf("Table 9 has %d strategies, want 4", len(rows))
	}
	var sudc *Strategy
	for i := range rows {
		if rows[i].Name == "SµDCs" {
			sudc = &rows[i]
		}
	}
	if sudc == nil {
		t.Fatal("SµDCs strategy missing")
	}
	// Only SµDCs both scale to future resolutions and adapt to mission
	// changes; only SµDCs require ISLs.
	for _, r := range rows {
		if r.Name == "SµDCs" {
			if !r.ScalesToFutureRes || !r.AdaptiveToMission || !r.RequiresISLs {
				t.Errorf("SµDC row wrong: %+v", r)
			}
			continue
		}
		if r.AdaptiveToMission {
			t.Errorf("%s should not be adaptive", r.Name)
		}
		if r.RequiresISLs {
			t.Errorf("%s should not require ISLs", r.Name)
		}
	}
}

func TestCostModelBreakEven(t *testing.T) {
	cm := DefaultCostModel()
	capex := cm.SuDCCapex(1)
	// $20M build + 2000 kg × $2700 = $25.4M.
	if math.Abs(float64(capex)-25.4e6) > 1e5 {
		t.Errorf("capex = %v, want ≈$25.4M", capex)
	}
	// The paper: at 10 cm / 99% ED downlink costs > $1000/min →
	// > $1.44M/day → breakeven in under a month.
	days := cm.BreakEvenDays(1, units.Money(1000*60*24))
	if days > 30 {
		t.Errorf("breakeven = %v days, want < 30 at $1000/min", days)
	}
	if !math.IsInf(cm.BreakEvenDays(1, 0), 1) {
		t.Error("free downlink should never break even")
	}
}

func TestPlacementAndHardeningStrings(t *testing.T) {
	if LEOInPlane.String() == "" || GEO.String() == "" || LEOHigher.String() == "" {
		t.Error("placement names empty")
	}
	if Placement(9).String() != "unknown" || Hardening(9).String() != "unknown" {
		t.Error("unknown enums should say unknown")
	}
	for _, h := range Hardenings() {
		if h.String() == "" {
			t.Error("hardening name empty")
		}
	}
}
