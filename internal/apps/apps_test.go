package apps

import (
	"testing"
)

func TestAllHasTenApplications(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("got %d applications, want 10 (Table 5)", len(all))
	}
	seen := map[ID]bool{}
	for _, a := range all {
		if seen[a.ID] {
			t.Errorf("duplicate ID %s", a.ID)
		}
		seen[a.ID] = true
		if a.FLOPsPerPixel <= 0 {
			t.Errorf("%s: non-positive FLOPs/pixel", a.ID)
		}
		if a.Name == "" || a.Kernel == "" {
			t.Errorf("%s: missing name or kernel", a.ID)
		}
	}
}

func TestTable5FLOPsValues(t *testing.T) {
	// Spot-check the exact Table 5 numbers.
	want := map[ID]float64{
		AirPollution:     3317,
		CropMonitoring:   67113,
		FloodDetection:   178969,
		AircraftDetect:   7387714,
		ForageQuality:    8491,
		UrbanEmergency:   4484,
		PanopticSeg:      6874279,
		OilSpill:         390625,
		TrafficMonitor:   51,
		LandSurfaceClust: 15984,
	}
	for id, flops := range want {
		a, err := ByID(id)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if a.FLOPsPerPixel != flops {
			t.Errorf("%s: FLOPs/pixel = %v, want %v", id, a.FLOPsPerPixel, flops)
		}
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("NOPE"); err == nil {
		t.Error("unknown ID accepted")
	}
}

func TestIDsOrder(t *testing.T) {
	ids := IDs()
	if len(ids) != 10 {
		t.Fatalf("got %d IDs", len(ids))
	}
	if ids[0] != AirPollution || ids[len(ids)-1] != LandSurfaceClust {
		t.Errorf("IDs not in Table 5 order: %v", ids)
	}
}

func TestComplexitySpread(t *testing.T) {
	// The paper: "over 10⁵× difference in floating point operations per
	// pixel between aircraft detection and traffic monitoring."
	spread := ComplexitySpreadFactor()
	if spread < 1e5 {
		t.Errorf("complexity spread = %v, want > 1e5", spread)
	}
	// AD / TM specifically = 7387714 / 51 ≈ 1.45e5.
	ad, _ := ByID(AircraftDetect)
	tm, _ := ByID(TrafficMonitor)
	if ad.FLOPsPerPixel/tm.FLOPsPerPixel != spread {
		t.Error("spread should be set by AD vs TM")
	}
}

func TestImageryTypes(t *testing.T) {
	hyper := 0
	for _, a := range All() {
		if a.Imagery == Hyperspectral {
			hyper++
		}
	}
	// CM, OSM, LSC are hyperspectral in Table 5.
	if hyper != 3 {
		t.Errorf("%d hyperspectral applications, want 3", hyper)
	}
	if RGB.String() != "RGB" || Hyperspectral.String() != "hyperspectral" || SAR.String() != "SAR" {
		t.Error("imagery type names wrong")
	}
	if ImageryType(9).String() != "unknown" {
		t.Error("unknown imagery type")
	}
}

func TestLatencySensitiveSubset(t *testing.T) {
	// §9: TM, APP, AD, CM, LSC, FQE explicitly have no stringent latency
	// requirements.
	relaxed := []ID{TrafficMonitor, AirPollution, AircraftDetect, CropMonitoring, LandSurfaceClust, ForageQuality}
	for _, id := range relaxed {
		a, _ := ByID(id)
		if a.LatencySensitive {
			t.Errorf("%s should not be latency sensitive", id)
		}
	}
	ued, _ := ByID(UrbanEmergency)
	if !ued.LatencySensitive {
		t.Error("UED should be latency sensitive (timely emergency response)")
	}
}
