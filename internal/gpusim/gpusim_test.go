package gpusim

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"spacedc/internal/apps"
	"spacedc/internal/units"
)

// deviceByName finds a catalog device.
func deviceByName(name string) (Device, error) {
	for _, d := range Catalog() {
		if d.Name == name {
			return d, nil
		}
	}
	return Device{}, fmt.Errorf("gpusim: unknown device %q", name)
}

func TestTable6Coverage(t *testing.T) {
	rows := Table6()
	// 10 apps on RTX 3090 + 9 on Xavier (PS unmappable) = 19 rows.
	if len(rows) != 19 {
		t.Fatalf("Table 6 has %d rows, want 19", len(rows))
	}
	for _, m := range rows {
		if m.Power <= 0 || m.KPixelSW <= 0 || m.InferSec <= 0 || m.BatchStar <= 0 {
			t.Errorf("%s on %s: non-positive fields %+v", m.App, m.Device, m)
		}
		if m.Util <= 0 || m.Util > 1 {
			t.Errorf("%s on %s: utilization %v outside (0,1]", m.App, m.Device, m.Util)
		}
	}
}

func TestMeasurementForPSOnXavier(t *testing.T) {
	_, err := MeasurementFor(apps.PanopticSeg, JetsonXavier.Name)
	if !errors.Is(err, ErrUnsupported) {
		t.Errorf("PS on Xavier: err = %v, want ErrUnsupported", err)
	}
}

func TestMeasurementForUnknown(t *testing.T) {
	if _, err := MeasurementFor("NOPE", RTX3090.Name); err == nil {
		t.Error("unknown app accepted")
	}
	if _, err := MeasurementFor(apps.AirPollution, "TPU v9"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestModelReproducesTable6AtOptimalBatch(t *testing.T) {
	for _, m := range Table6() {
		dev, err := deviceByName(m.Device)
		if err != nil {
			t.Fatal(err)
		}
		model, err := NewModel(m.App, dev)
		if err != nil {
			t.Fatalf("%s on %s: %v", m.App, m.Device, err)
		}
		b := model.OptimalBatch()
		if b != m.BatchStar {
			t.Errorf("%s on %s: optimal batch %v, want %v", m.App, m.Device, b, m.BatchStar)
		}
		if got := model.EnergyEfficiency(b); math.Abs(got-m.KPixelSW)/m.KPixelSW > 1e-9 {
			t.Errorf("%s on %s: eff %v, want %v", m.App, m.Device, got, m.KPixelSW)
		}
		if got := model.Power(b); math.Abs(float64(got-m.Power))/float64(m.Power) > 1e-9 {
			t.Errorf("%s on %s: power %v, want %v", m.App, m.Device, got, m.Power)
		}
		if got := model.InferTime(b); math.Abs(got-m.InferSec)/m.InferSec > 1e-9 {
			t.Errorf("%s on %s: infer time %v, want %v", m.App, m.Device, got, m.InferSec)
		}
		if got := model.Utilization(b); math.Abs(got-m.Util) > 1e-9 {
			t.Errorf("%s on %s: util %v, want %v", m.App, m.Device, got, m.Util)
		}
	}
}

func TestEfficiencyCurveUnimodal(t *testing.T) {
	model, err := NewModel(apps.FloodDetection, RTX3090)
	if err != nil {
		t.Fatal(err)
	}
	bStar := model.Calibration().BatchStar
	peak := model.EnergyEfficiency(bStar)
	for _, b := range []float64{bStar / 8, bStar / 2, 2 * bStar, 8 * bStar} {
		if e := model.EnergyEfficiency(b); e >= peak {
			t.Errorf("efficiency at batch %v (%v) not below peak (%v)", b, e, peak)
		}
	}
	// Monotone rise up to the peak.
	prev := 0.0
	for b := 1.0; b <= bStar; b++ {
		e := model.EnergyEfficiency(b)
		if e < prev {
			t.Fatalf("efficiency decreasing before peak at batch %v", b)
		}
		prev = e
	}
}

func TestPowerBoundedByTDP(t *testing.T) {
	for _, m := range Table6() {
		dev, _ := deviceByName(m.Device)
		model, err := NewModel(m.App, dev)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []float64{0, 1, m.BatchStar, 10 * m.BatchStar, 1000 * m.BatchStar} {
			p := model.Power(b)
			if p < 0 || p > dev.TDP {
				t.Errorf("%s on %s: power %v at batch %v outside [0, TDP=%v]",
					m.App, m.Device, p, b, dev.TDP)
			}
		}
	}
}

func TestUtilizationBounds(t *testing.T) {
	model, err := NewModel(apps.OilSpill, RTX3090) // 98% measured util
	if err != nil {
		t.Fatal(err)
	}
	for b := 0.0; b < 100; b += 5 {
		u := model.Utilization(b)
		if u < 0 || u > 1 {
			t.Fatalf("utilization %v at batch %v", u, b)
		}
	}
}

func TestZeroBatchDegenerate(t *testing.T) {
	model, err := NewModel(apps.AirPollution, RTX3090)
	if err != nil {
		t.Fatal(err)
	}
	if model.EnergyEfficiency(0) != 0 || model.PixelRate(0) != 0 {
		t.Error("zero batch should process nothing")
	}
	if !math.IsInf(model.InferTime(0), 1) {
		t.Error("zero batch inference should take forever")
	}
	if model.Power(0) != RTX3090.Idle {
		t.Errorf("zero batch power = %v, want idle", model.Power(0))
	}
}

func TestScaledDeviceAI100(t *testing.T) {
	base, err := NewModel(apps.CropMonitoring, RTX3090)
	if err != nil {
		t.Fatal(err)
	}
	ai, err := NewModel(apps.CropMonitoring, CloudAI100)
	if err != nil {
		t.Fatal(err)
	}
	ratio := ai.BestEfficiency() / base.BestEfficiency()
	if math.Abs(ratio-18.25) > 1e-9 {
		t.Errorf("AI 100 efficiency gain = %v, want 18.25 (§9)", ratio)
	}
	// Power stays within the AI 100's 75 W envelope.
	if p := ai.Power(1e6); p > CloudAI100.TDP {
		t.Errorf("AI 100 power %v exceeds TDP", p)
	}
}

func TestDeviceEfficiencyOrdering(t *testing.T) {
	// §9 ordering at equal workload: AI100 > H100 > A100 > RTX 3090.
	effFor := func(d Device) float64 {
		m, err := NewModel(apps.UrbanEmergency, d)
		if err != nil {
			t.Fatal(err)
		}
		return m.BestEfficiency()
	}
	ai, h, a, rtx := effFor(CloudAI100), effFor(H100), effFor(A100), effFor(RTX3090)
	if !(ai > h && h > a && a > rtx) {
		t.Errorf("efficiency ordering wrong: AI100=%v H100=%v A100=%v 3090=%v", ai, h, a, rtx)
	}
}

func TestPSOnXavierModelFails(t *testing.T) {
	if _, err := NewModel(apps.PanopticSeg, JetsonXavier); err == nil {
		t.Error("PS on Xavier should be unsupported")
	}
}

func TestUnknownAppModel(t *testing.T) {
	if _, err := NewModel("XX", RTX3090); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestPowerForPixelRateRoundTrip(t *testing.T) {
	model, err := NewModel(apps.FloodDetection, RTX3090)
	if err != nil {
		t.Fatal(err)
	}
	rate := model.PixelRateForPower(4 * units.Kilowatt)
	back := model.PowerForPixelRate(rate)
	if math.Abs(float64(back)-4000)/4000 > 1e-9 {
		t.Errorf("power round trip = %v, want 4 kW", back)
	}
	// FD on 3090: 307 kpx/s/W × 4 kW = 1.228e9 px/s.
	if math.Abs(rate-1.228e9)/1.228e9 > 0.001 {
		t.Errorf("4 kW FD rate = %v, want ≈1.228e9 px/s", rate)
	}
}

func TestCatalogLookup(t *testing.T) {
	if len(Catalog()) != 5 {
		t.Errorf("catalog size %d, want 5", len(Catalog()))
	}
	if _, err := deviceByName("RTX 3090"); err != nil {
		t.Error(err)
	}
	if _, err := deviceByName("Cerebras"); err == nil {
		t.Error("unknown device found")
	}
}

func TestXavierVsRTX3090EfficiencyShape(t *testing.T) {
	// Table 6 shape: the Xavier is the more efficient device for the
	// lightweight TM and LSC kernels, the 3090 for heavy DNNs.
	type pair struct {
		id        apps.ID
		rtxBetter bool
	}
	for _, p := range []pair{
		{apps.TrafficMonitor, false},
		{apps.LandSurfaceClust, false},
		{apps.FloodDetection, true},
		{apps.CropMonitoring, true},
		{apps.OilSpill, true},
	} {
		rtx, err := NewModel(p.id, RTX3090)
		if err != nil {
			t.Fatal(err)
		}
		xav, err := NewModel(p.id, JetsonXavier)
		if err != nil {
			t.Fatal(err)
		}
		if (rtx.BestEfficiency() > xav.BestEfficiency()) != p.rtxBetter {
			t.Errorf("%s: rtx=%v xavier=%v, want rtxBetter=%v",
				p.id, rtx.BestEfficiency(), xav.BestEfficiency(), p.rtxBetter)
		}
	}
}

func TestMeasurementPixelRate(t *testing.T) {
	m, err := MeasurementFor(apps.AirPollution, RTX3090.Name)
	if err != nil {
		t.Fatal(err)
	}
	// 1168 kpx/s/W × 119 W ≈ 1.39e8 px/s.
	if got := m.PixelRate(); math.Abs(got-1.39e8)/1.39e8 > 0.01 {
		t.Errorf("APP pixel rate = %v, want ≈1.39e8", got)
	}
}
