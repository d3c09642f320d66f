package gpusim

import (
	"fmt"
	"math"

	"spacedc/internal/apps"
	"spacedc/internal/units"
)

// Model predicts throughput, power, and energy efficiency of one
// application on one device as a function of batch size.
//
// The model is anchored at a calibrated operating point (batch b*, the
// paper's Table 6 row) and responds analytically around it:
//
//	x        = batch / b*
//	eff(x)   = eff* · 4x/(1+x)²        — unimodal, peaks at x = 1
//	power(x) = idle + (p* − idle) · 2x/(1+x), clamped to TDP
//	rate(x)  = eff(x) · power(x)
//
// At x = 1 all quantities equal the calibration row; small batches
// under-utilize the device (efficiency and power fall), oversized batches
// keep power high while marginal throughput decays — the standard shape of
// measured batch sweeps, and the reason the paper picks the
// efficiency-optimal batch.
type Model struct {
	App    apps.Application
	Device Device
	cal    Measurement
}

// NewModel builds a model for app on device. Devices without their own
// Table 6 calibration (A100, H100, Cloud AI 100) inherit the RTX 3090 row
// with energy efficiency scaled by Device.EffVsRTX3090 and power scaled to
// the device's TDP.
func NewModel(id apps.ID, dev Device) (*Model, error) {
	app, err := apps.ByID(id)
	if err != nil {
		return nil, err
	}
	if m, err := MeasurementFor(id, dev.Name); err == nil {
		return &Model{App: app, Device: dev, cal: m}, nil
	} else if dev.Name == JetsonXavier.Name || dev.Name == RTX3090.Name {
		return nil, err
	}
	if dev.EffVsRTX3090 <= 0 {
		return nil, fmt.Errorf("gpusim: device %q has no calibration and no efficiency scaling", dev.Name)
	}
	base, err := MeasurementFor(id, RTX3090.Name)
	if err != nil {
		return nil, err
	}
	scaled := base
	scaled.Device = dev.Name
	// Keep the same fraction of TDP, scale efficiency; throughput follows.
	scaled.Power = units.Power(float64(base.Power) / float64(RTX3090.TDP) * float64(dev.TDP))
	scaled.KPixelSW = base.KPixelSW * dev.EffVsRTX3090
	// Inference time shrinks with the throughput gain at equal batch.
	rateGain := (float64(scaled.Power) * scaled.KPixelSW) / (float64(base.Power) * base.KPixelSW)
	scaled.InferSec = base.InferSec / rateGain
	return &Model{App: app, Device: dev, cal: scaled}, nil
}

// Calibration returns the operating point the model is anchored to.
func (m *Model) Calibration() Measurement { return m.cal }

// batchRatio converts a batch size to the normalized x = batch/b*.
func (m *Model) batchRatio(batch float64) float64 {
	if batch <= 0 {
		return 0
	}
	return batch / m.cal.BatchStar
}

// EnergyEfficiency returns kilopixels per second per watt at the given
// batch size.
func (m *Model) EnergyEfficiency(batch float64) float64 {
	x := m.batchRatio(batch)
	if x == 0 {
		return 0
	}
	return m.cal.KPixelSW * 4 * x / ((1 + x) * (1 + x))
}

// Power returns the board power at the given batch size.
func (m *Model) Power(batch float64) units.Power {
	x := m.batchRatio(batch)
	p := float64(m.Device.Idle) + (float64(m.cal.Power)-float64(m.Device.Idle))*2*x/(1+x)
	if p > float64(m.Device.TDP) {
		p = float64(m.Device.TDP)
	}
	return units.Power(p)
}

// Utilization returns the modeled device utilization in [0, 1].
func (m *Model) Utilization(batch float64) float64 {
	x := m.batchRatio(batch)
	u := m.cal.Util * 2 * x / (1 + x)
	return math.Min(u, 1)
}

// PixelRate returns pixels/s processed at the given batch size.
func (m *Model) PixelRate(batch float64) float64 {
	return m.EnergyEfficiency(batch) * 1e3 * float64(m.Power(batch))
}

// InferTime returns the wall time of one batch inference.
func (m *Model) InferTime(batch float64) float64 {
	rate := m.PixelRate(batch)
	if rate == 0 {
		return math.Inf(1)
	}
	// Pixels per item is fixed by the calibration row: at b* the batch
	// takes InferSec at the calibrated rate.
	pixelsPerItem := m.cal.PixelRate() * m.cal.InferSec / m.cal.BatchStar
	return batch * pixelsPerItem / rate
}

// OptimalBatch sweeps batch sizes and returns the most energy-efficient
// one. With the analytic response this lands on the calibrated b* —
// reproducing the paper's methodology rather than assuming it.
func (m *Model) OptimalBatch() float64 {
	best, bestEff := 1.0, 0.0
	for b := 1.0; b <= 4*m.cal.BatchStar; b++ {
		if e := m.EnergyEfficiency(b); e > bestEff {
			best, bestEff = b, e
		}
	}
	return best
}

// BestEfficiency returns the peak energy efficiency in kpixel/s/W.
func (m *Model) BestEfficiency() float64 {
	return m.EnergyEfficiency(m.OptimalBatch())
}

// PowerForPixelRate returns the device power needed to sustain the given
// pixel throughput at peak efficiency (Fig 8's question: how much compute
// power must a satellite carry to run this application?). The answer
// assumes the workload is spread across enough devices that each runs at
// its efficiency-optimal batch.
func (m *Model) PowerForPixelRate(pixelsPerSec float64) units.Power {
	eff := m.BestEfficiency() * 1e3 // pixels/s/W
	if eff <= 0 {
		return units.Power(math.Inf(1))
	}
	return units.Power(pixelsPerSec / eff)
}

// PixelRateForPower inverts PowerForPixelRate: throughput sustained by a
// power budget at peak efficiency.
func (m *Model) PixelRateForPower(budget units.Power) float64 {
	return m.BestEfficiency() * 1e3 * float64(budget)
}
