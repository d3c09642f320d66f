package sched

import (
	"fmt"
	"math"
	"math/rand/v2"

	"spacedc/internal/apps"
	"spacedc/internal/gpusim"
)

// DeviceProcessor adapts a gpusim performance model to the scheduler's
// Processor interface: one queued frame maps to one batch item, so the
// calibrated batch-response curve (efficiency peaks at b*, power saturates)
// directly drives the simulation.
type DeviceProcessor struct {
	Model *gpusim.Model
	// Replicas is the number of identical devices ganged together (a
	// 4 kW SµDC carries ~11 RTX 3090s); throughput scales linearly.
	// Zero means 1.
	Replicas int
}

// NewDeviceProcessor builds a processor for app on dev with the given
// replica count.
func NewDeviceProcessor(app apps.ID, dev gpusim.Device, replicas int) (*DeviceProcessor, error) {
	m, err := gpusim.NewModel(app, dev)
	if err != nil {
		return nil, err
	}
	if replicas < 0 {
		return nil, fmt.Errorf("sched: negative replica count %d", replicas)
	}
	return &DeviceProcessor{Model: m, Replicas: replicas}, nil
}

// replicas returns the effective gang size.
func (d *DeviceProcessor) replicas() float64 {
	if d.Replicas <= 0 {
		return 1
	}
	return float64(d.Replicas)
}

// Process implements Processor: the batch is spread evenly over the gang,
// each device running at the per-device batch's operating point.
func (d *DeviceProcessor) Process(frames int, pixels float64) (seconds, joules float64) {
	if frames <= 0 || pixels <= 0 {
		return 0, 0
	}
	r := d.replicas()
	perDevBatch := float64(frames) / r
	rate := d.Model.PixelRate(perDevBatch) * r
	if rate <= 0 {
		return 0, 0
	}
	seconds = pixels / rate
	joules = seconds * float64(d.Model.Power(perDevBatch)) * r
	return seconds, joules
}

// OptimalTargetBatch returns the gang-wide batch size that hits each
// device's energy-efficiency optimum.
func (d *DeviceProcessor) OptimalTargetBatch() int {
	b := int(d.Model.OptimalBatch() * d.replicas())
	if b < 1 {
		b = 1
	}
	return b
}

// Device is the SµDC's compute gang as a batch executor: each launch runs
// the processor's operating point, stretched by thermal derating and
// executed under the recovery policy, and adds to the device tallies.
// Simulate and the qos compute stage both launch their batches through
// it.
type Device struct {
	Proc           Processor
	PixelsPerFrame float64
	Thermal        ThermalHook  // nil = never derated
	Faults         *FaultConfig // nil = fault-free; only Hazard, the reset split and Recovery are read
	Rng            *rand.Rand   // the run's one random stream; recovery policies draw from it through BatchExec

	// Tallies over every launch: BusySec is occupancy less reset
	// downtime, ThrottleSec the service time thermal derating added and
	// Throttled the batches it stretched.
	EnergyJ, BusySec, ThrottleSec, DowntimeSec float64
	Batches, Upsets, Resets, Throttled         int
}

// Launch runs a batch of frames at now and returns how long it holds the
// device and whether its results are uncorrupted.
func (d *Device) Launch(now float64, frames int) (secs float64, good bool) {
	secs, joules := d.Proc.Process(frames, float64(frames)*d.PixelsPerFrame)
	if secs < 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
		secs = 0
	}
	// Thermal derating stretches the service time before fault sampling:
	// a throttled device holds the batch longer, and is exposed to upsets
	// for longer.
	if d.Thermal != nil {
		f := d.Thermal.Factor(now)
		if f < minThrottleFactor {
			f = minThrottleFactor
		}
		if f < 1 {
			stretched := secs / f
			d.ThrottleSec += stretched - secs
			secs = stretched
			d.Throttled++
		}
	}
	good = true
	var down float64
	if f := d.Faults; f != nil {
		pol := f.Recovery
		if pol == nil {
			pol = noMitigation{}
		}
		out := pol.Execute(BatchExec{
			Start:         now,
			BaseSecs:      secs,
			BaseJoules:    joules,
			Hazard:        f.Hazard,
			ResetFraction: f.ResetFraction,
			ResetMTTRSec:  f.ResetMTTRSec,
			Rng:           d.Rng,
		})
		secs, joules, good, down = out.Secs, out.Joules, out.Good, out.DownSec
		d.Upsets += out.Upsets
		d.Resets += out.Resets
		d.DowntimeSec += out.DownSec
		if secs < 0 || math.IsNaN(secs) || math.IsInf(secs, 0) {
			secs = 0
		}
	}
	d.EnergyJ += joules
	d.BusySec += secs - down
	d.Batches++
	if d.Thermal != nil {
		d.Thermal.Dissipated(now, secs, joules)
	}
	return secs, good
}
