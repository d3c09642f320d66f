package core

import (
	"fmt"
	"math"

	"spacedc/internal/apps"
	"spacedc/internal/datagen"
	"spacedc/internal/gpusim"
	"spacedc/internal/units"
)

// Workload is a constellation-wide processing demand.
type Workload struct {
	App          apps.ID
	Mission      datagen.Mission
	ResolutionM  float64
	EarlyDiscard float64
}

// Validate checks the workload.
func (w Workload) Validate() error {
	if err := w.Mission.Frame.Validate(); err != nil {
		return err
	}
	if w.Mission.Satellites <= 0 {
		return fmt.Errorf("core: non-positive satellite count %d", w.Mission.Satellites)
	}
	if w.ResolutionM <= 0 {
		return fmt.Errorf("core: non-positive resolution %v", w.ResolutionM)
	}
	if w.EarlyDiscard < 0 || w.EarlyDiscard >= 1 {
		return fmt.Errorf("core: early discard %v outside [0, 1)", w.EarlyDiscard)
	}
	return nil
}

// PixelRate returns the constellation's aggregate pixels/s after discard.
func (w Workload) PixelRate() float64 {
	return w.Mission.ConstellationPixelRate(w.ResolutionM, w.EarlyDiscard)
}

// SuDCsNeeded returns the number of SµDCs of the given design required to
// process the workload in real time — the Fig 9 (RTX 3090), Fig 14
// (Cloud AI 100), and Fig 16 (hardening) computation.
func SuDCsNeeded(w Workload, s SuDC) (int, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if err := s.Validate(); err != nil {
		return 0, err
	}
	model, err := gpusim.NewModel(w.App, s.Device)
	if err != nil {
		return 0, err
	}
	perSuDC := model.PixelRateForPower(s.EffectiveComputeBudget())
	if perSuDC <= 0 {
		return 0, fmt.Errorf("core: SµDC processes no pixels")
	}
	need := w.PixelRate() / perSuDC
	return int(math.Ceil(need)), nil
}

// SatellitePowerNeeded returns the on-board compute power one EO satellite
// must carry to process its own data stream with the given device — the
// Fig 8 computation (the paper uses the Jetson AGX Xavier).
func SatellitePowerNeeded(app apps.ID, dev gpusim.Device, frame datagen.FrameSpec, resM, earlyDiscard float64) (units.Power, error) {
	model, err := gpusim.NewModel(app, dev)
	if err != nil {
		return 0, err
	}
	pixelRate := frame.PixelRate(resM, earlyDiscard)
	return model.PowerForPixelRate(pixelRate), nil
}

// SupportedOnBudget reports whether an application fits a satellite's
// power budget at the given resolution and discard rate.
func SupportedOnBudget(app apps.ID, dev gpusim.Device, frame datagen.FrameSpec, resM, earlyDiscard float64, budget units.Power) (bool, error) {
	need, err := SatellitePowerNeeded(app, dev, frame, resM, earlyDiscard)
	if err != nil {
		return false, err
	}
	return need <= budget, nil
}
