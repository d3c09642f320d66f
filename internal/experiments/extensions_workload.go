package experiments

import (
	"fmt"
	"sync"

	"spacedc/internal/apps"
	"spacedc/internal/discard"
	"spacedc/internal/gpusim"
	"spacedc/internal/pool"
	"spacedc/internal/qos"
	"spacedc/internal/report"
	"spacedc/internal/resilience"
	"spacedc/internal/sched"
	"spacedc/internal/units"
	"spacedc/internal/workload"
)

var _ = register("ext-workload", "overload-robust tasking: priority admission, shed/retry, SLO attainment under fault campaigns", ExtWorkload)

// workloadPipeline is the calibrated service pipeline every ext-workload
// cell (and the sudcsimd workload spec) shares: a network stage measured
// from the ring-16 netsim scenario and a compute stage on a 4×RTX 3090
// flood-detection gang processing 2-Mpx tasking tiles.
type workloadPipeline struct {
	net   qos.NetworkConfig
	comp  qos.ComputeConfig
	peakW float64 // gang dissipation at the target batch
	// admitPerSec is the pipeline's sustainable request rate for the
	// default class mix, derated 10% for headroom — the aggregate capacity
	// the preset admission policies are sized to.
	admitPerSec float64
}

// The calibration runs two netsim scenarios; both are deterministic, so
// computing it once per process keeps repeated evaluations bit-identical
// and cheap.
var (
	workloadCalOnce sync.Once
	workloadCal     workloadPipeline
	workloadCalErr  error
)

// workloadShared returns the per-process calibration.
func workloadShared() (workloadPipeline, error) {
	workloadCalOnce.Do(func() { workloadCal, workloadCalErr = calibrateWorkload() })
	return workloadCal, workloadCalErr
}

// calibrateWorkload measures the pipeline once.
func calibrateWorkload() (workloadPipeline, error) {
	// A shortened ring-16 run is enough to find the saturation point; the
	// full 120 s scenario only narrows the same numbers.
	base := NetsimBaseScenario()
	base.Name = "ext-workload"
	base.DurationSec = 40
	base.WarmupSec = 10
	net, err := qos.CalibrateNetwork(base)
	if err != nil {
		return workloadPipeline{}, err
	}

	proc, err := sched.NewDeviceProcessor(apps.FloodDetection, gpusim.RTX3090, 4)
	if err != nil {
		return workloadPipeline{}, err
	}
	comp := qos.ComputeConfig{
		Proc:           proc,
		PixelsPerFrame: 2e6, // tasking tiles, not full 4K frames
		TargetBatch:    proc.OptimalTargetBatch(),
		MaxWaitSec:     1,
	}

	secs, joules := proc.Process(comp.TargetBatch, float64(comp.TargetBatch)*comp.PixelsPerFrame)
	if secs <= 0 {
		return workloadPipeline{}, fmt.Errorf("experiments: workload device probe returned %v s", secs)
	}
	frameRate := float64(comp.TargetBatch) / secs

	spec := workload.Spec{Classes: workload.DefaultClasses()}
	netCap := net.CapacityBps / spec.MeanBits()
	compCap := frameRate / spec.MeanFrames()
	admit := netCap
	if compCap < admit {
		admit = compCap
	}
	return workloadPipeline{
		net:         net,
		comp:        comp,
		peakW:       joules / secs,
		admitPerSec: 0.9 * admit,
	}, nil
}

// WorkloadScenario builds one end-to-end QoS scenario on the calibrated
// pipeline: a diurnal tasking baseline with a disaster-response surge at
// T/4, the named policy preset sized to the pipeline's admission capacity,
// the named fault campaign landing mid-surge, and a thermal governor whose
// radiator matches the gang (so only the radiator-derate fault throttles
// it). load scales the offered demand: 1.0 peaks near 1.6× the admission
// capacity, 2.0 near 3.2×. durationSec ≤ 0 means 360 s.
func WorkloadScenario(policy, campaign string, load, durationSec float64, seed int64) (qos.Scenario, error) {
	if load <= 0 {
		return qos.Scenario{}, fmt.Errorf("experiments: non-positive workload load %v", load)
	}
	if durationSec <= 0 {
		durationSec = 360
	}
	cal, err := workloadShared()
	if err != nil {
		return qos.Scenario{}, err
	}
	admit := cal.admitPerSec
	pol, err := qos.PresetPolicy(policy, admit)
	if err != nil {
		return qos.Scenario{}, err
	}
	camp, err := qos.PresetCampaign(campaign, 0.3*durationSec, 0.1*durationSec)
	if err != nil {
		return qos.Scenario{}, err
	}
	gov, err := resilience.GovernorForBudget(
		units.Power(cal.peakW), units.Power(cal.peakW), 2e5, discard.Ocean)
	if err != nil {
		return qos.Scenario{}, err
	}
	return qos.Scenario{
		Name: fmt.Sprintf("workload-%s-%s-%.2gx", policy, campaign, load),
		Workload: workload.Spec{
			BaseRatePerSec:   0.55 * load * admit,
			DiurnalAmp:       0.25,
			DiurnalPeriodSec: durationSec,
			BurstOnsets:      []float64{0.25 * durationSec},
			BurstPeakPerSec:  0.9 * load * admit,
			BurstDecaySec:    durationSec / 6,
			DurationSec:      durationSec,
			Seed:             seed,
		},
		Network:  cal.net,
		Compute:  cal.comp,
		Policy:   pol,
		Governor: gov,
		Campaign: camp,
		Seed:     seed,
	}, nil
}

// ExtWorkload sweeps the policy × load grid under the combined fault
// campaign (ground-station outage + SEU burst + radiator derate landing
// mid-surge). The open baseline collapses uniformly as load rises; the
// priority policies hold the urgent class's SLO by shedding best-effort
// load, and retry converts SEU failures back into (late) completions. The
// per-cell runs fan out on the shared pool and reassemble in grid order,
// so the table is bit-identical at any worker count.
func ExtWorkload() ([]report.Table, error) {
	t := report.Table{
		ID: "ext-workload",
		Title: "Overload-robust tasking under the combined fault campaign " +
			"(ring-16 network, 4×RTX 3090, surge at T/4, faults mid-surge)",
		Note: "load scales offered demand relative to the calibrated admission capacity (1.0x peaks near 1.6x); " +
			"urgent SLO is the fraction of urgent requests completed inside their 30 s deadline; " +
			"recovery is the time for the backlog to return to its pre-fault baseline (n/a = not within the run)",
		Columns: []string{"policy", "load", "offered", "shed", "failed",
			"urgent p99 (s)", "urgent SLO", "b-e shed", "goodput (req/s)", "recovery (s)"},
	}

	loads := []float64{0.5, 1.0, 2.0}
	type cell struct {
		policy string
		load   float64
	}
	var cells []cell
	for _, p := range qos.PolicyNames() {
		for _, l := range loads {
			cells = append(cells, cell{policy: p, load: l})
		}
	}
	results := make([]qos.Result, len(cells))
	errs := make([]error, len(cells))
	pool.Map(len(cells), 0, func(i int) error {
		sc, err := WorkloadScenario(cells[i].policy, qos.CampaignCombined, cells[i].load, 0, 5)
		if err != nil {
			errs[i] = err
			return nil
		}
		results[i], errs[i] = qos.Run(sc)
		return nil
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: workload cell %s/%.2gx: %w", cells[i].policy, cells[i].load, err)
		}
	}

	for i, c := range cells {
		r := results[i]
		urgent, bestEffort := r.Classes[0], r.Classes[2]
		goodput := 0.0
		for _, cr := range r.Classes {
			goodput += cr.GoodputPerSec
		}
		recovery := "n/a"
		if r.RecoverySec >= 0 {
			recovery = fmt.Sprintf("%.1f", r.RecoverySec)
		}
		t.AddRow(c.policy,
			fmt.Sprintf("%.1fx", c.load),
			r.Offered,
			r.Shed,
			r.Failed,
			fmt.Sprintf("%.1f", urgent.P99LatencySec),
			fmt.Sprintf("%.3f", urgent.SLOAttainment),
			fmt.Sprintf("%.3f", bestEffort.ShedFraction),
			fmt.Sprintf("%.1f", goodput),
			recovery)
	}
	return []report.Table{t}, nil
}
