// Package gpusim is an analytic performance/power simulator for the GPU and
// accelerator hardware the paper evaluates. It substitutes for the paper's
// physical RTX 3090 and Jetson AGX Xavier testbeds: each (application,
// device) pair is calibrated at the paper's published Table 6 operating
// point, and an analytic batch-size response models how utilization, power,
// throughput, and energy efficiency move around that point — reproducing
// the paper's methodology of sweeping batch sizes and picking the most
// energy-efficient one.
//
// Devices without published per-application measurements (A100, H100,
// Qualcomm Cloud AI 100) are modeled by scaling the RTX 3090 calibration by
// their relative MLPerf energy efficiency, exactly as the paper's §9 does
// for the AI 100 (18.25× the RTX 3090).
package gpusim

import "spacedc/internal/units"

// Device describes a compute device a SµDC (or EO satellite) could carry.
type Device struct {
	Name string
	// TDP is the board power limit.
	TDP units.Power
	// Idle is the power draw at zero utilization.
	Idle units.Power
	// EffVsRTX3090 scales the per-application energy efficiency measured
	// on the RTX 3090. 1.0 for the 3090 itself; devices with their own
	// calibration table (Xavier) ignore it.
	EffVsRTX3090 float64
	// RadiationNote records the §9 radiation posture of the part.
	RadiationNote string
}

// The device catalog. Efficiency scalings follow §9: the Qualcomm Cloud
// AI 100 is 18.25× the RTX 3090, >2.5× the A100, and nearly 2× the H100 on
// MLPerf v3.0 offline image inference.
var (
	JetsonXavier = Device{
		Name: "Jetson AGX Xavier", TDP: 30 * units.Watt, Idle: 0.5 * units.Watt,
		EffVsRTX3090:  0, // directly calibrated
		RadiationNote: "good proton-irradiation tolerance (Rodriguez-Ferrandez 2022); flown COTS",
	}
	RTX3090 = Device{
		Name: "RTX 3090", TDP: 350 * units.Watt, Idle: 15 * units.Watt,
		EffVsRTX3090:  1,
		RadiationNote: "COTS; software hardening or SAA pause required",
	}
	A100 = Device{
		Name: "A100", TDP: 400 * units.Watt, Idle: 40 * units.Watt,
		EffVsRTX3090:  18.25 / 2.5,
		RadiationNote: "COTS datacenter part; software hardening required",
	}
	H100 = Device{
		Name: "H100", TDP: 700 * units.Watt, Idle: 50 * units.Watt,
		EffVsRTX3090:  18.25 / 1.9,
		RadiationNote: "COTS datacenter part; software hardening required",
	}
	CloudAI100 = Device{
		Name: "Qualcomm Cloud AI 100", TDP: 75 * units.Watt, Idle: 5 * units.Watt,
		EffVsRTX3090:  18.25,
		RadiationNote: "COTS inference accelerator; MLPerf v3.0 efficiency leader",
	}
)

// Catalog lists all modeled devices.
func Catalog() []Device {
	return []Device{JetsonXavier, RTX3090, A100, H100, CloudAI100}
}
