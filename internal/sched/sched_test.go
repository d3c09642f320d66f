package sched

import (
	"math"
	"testing"

	"spacedc/internal/apps"
	"spacedc/internal/gpusim"
)

// fixedRate is a synthetic processor with constant pixel rate and power.
type fixedRate struct {
	pixelsPerSec float64
	watts        float64
}

func (f fixedRate) Process(frames int, pixels float64) (float64, float64) {
	secs := pixels / f.pixelsPerSec
	return secs, secs * f.watts
}

func baseConfig() Config {
	return Config{
		Satellites:     8,
		FramePeriodSec: 1.5,
		PixelsPerFrame: 1e6,
		TargetBatch:    4,
		MaxWaitSec:     3,
		DurationSec:    300,
		Seed:           1,
	}
}

func TestValidate(t *testing.T) {
	good := baseConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	mutations := map[string]func(*Config){
		"zero sats":        func(c *Config) { c.Satellites = 0 },
		"zero period":      func(c *Config) { c.FramePeriodSec = 0 },
		"zero pixels":      func(c *Config) { c.PixelsPerFrame = 0 },
		"zero duration":    func(c *Config) { c.DurationSec = 0 },
		"zero batch":       func(c *Config) { c.TargetBatch = 0 },
		"max below target": func(c *Config) { c.MaxBatch = 2; c.TargetBatch = 4 },
		"negative wait":    func(c *Config) { c.MaxWaitSec = -1 },
	}
	for name, mut := range mutations {
		c := baseConfig()
		mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := Simulate(baseConfig(), nil); err == nil {
		t.Error("nil processor accepted")
	}
}

func TestConservation(t *testing.T) {
	cfg := baseConfig()
	// Generously fast device: everything processes.
	st, err := Simulate(cfg, fixedRate{pixelsPerSec: 1e9, watts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.Arrived != st.Processed+st.Dropped+st.LeftOver {
		t.Errorf("conservation violated: %+v", st)
	}
	// 8 sats / 1.5 s over 300 s ≈ 1600 frames.
	if st.Arrived < 1500 || st.Arrived > 1700 {
		t.Errorf("arrived %d, want ≈1600", st.Arrived)
	}
	if st.Dropped != 0 {
		t.Errorf("fast device dropped %d frames", st.Dropped)
	}
	if st.MeanLatencySec <= 0 || st.MaxLatencySec < st.P95LatencySec || st.P95LatencySec < 0 {
		t.Errorf("latency stats inconsistent: %+v", st)
	}

	// Slow device: the queue overflows and still holds frames at the end,
	// so Dropped and LeftOver both enter the identity.
	slow, err := Simulate(cfg, fixedRate{pixelsPerSec: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Dropped == 0 || slow.LeftOver == 0 {
		t.Fatalf("slow device should drop frames and end with a queue: %+v", slow)
	}
	if slow.Arrived != slow.Processed+slow.Dropped+slow.LeftOver {
		t.Errorf("conservation violated: %+v", slow)
	}
}

func TestOverloadDropsFrames(t *testing.T) {
	cfg := baseConfig()
	cfg.QueueLimit = 16
	// Device sustains half the offered pixel rate.
	offered := float64(cfg.Satellites) * cfg.PixelsPerFrame / cfg.FramePeriodSec
	st, err := Simulate(cfg, fixedRate{pixelsPerSec: offered / 2, watts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.Dropped == 0 {
		t.Error("overloaded system should drop frames")
	}
	if st.Utilization < 0.9 {
		t.Errorf("overloaded utilization %v, want ≈1", st.Utilization)
	}
}

func TestUnderloadLowUtilization(t *testing.T) {
	cfg := baseConfig()
	offered := float64(cfg.Satellites) * cfg.PixelsPerFrame / cfg.FramePeriodSec
	st, err := Simulate(cfg, fixedRate{pixelsPerSec: offered * 10, watts: 100})
	if err != nil {
		t.Fatal(err)
	}
	if st.Utilization > 0.2 {
		t.Errorf("10× headroom should idle the device: util %v", st.Utilization)
	}
	// MaxWait bounds latency: 3 s wait + service.
	if st.P95LatencySec > cfg.MaxWaitSec+1 {
		t.Errorf("p95 latency %v exceeds wait bound", st.P95LatencySec)
	}
}

func TestEarlyDiscardReducesArrivals(t *testing.T) {
	cfg := baseConfig()
	cfg.KeepProb = func(int, float64) float64 { return 0.05 } // 95% discard
	st, err := Simulate(cfg, fixedRate{pixelsPerSec: 1e9, watts: 100})
	if err != nil {
		t.Fatal(err)
	}
	full := 8.0 * 300 / 1.5
	if got := float64(st.Arrived); got > 0.12*full || got < 0.01*full {
		t.Errorf("95%% discard arrivals = %v of %v generated", got, full)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	cfg := baseConfig()
	cfg.KeepProb = func(int, float64) float64 { return 0.5 }
	a, err := Simulate(cfg, fixedRate{1e8, 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(cfg, fixedRate{1e8, 100})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same seed should reproduce identical stats")
	}
	cfg.Seed = 2
	c, err := Simulate(cfg, fixedRate{1e8, 100})
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Error("different seeds should differ")
	}
}

func TestBatchingLatencyEnergyTradeoff(t *testing.T) {
	// The §9 trade on a real device model: batching to the efficiency
	// optimum lowers J/frame but raises latency versus tiny batches.
	proc, err := NewDeviceProcessor(apps.FloodDetection, gpusim.RTX3090, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Keep the system underloaded at every batch size so latency isolates
	// the batching delay, not queue buildup: FD at batch 1 still sustains
	// ≈3.5 Mpx/s, and 2 satellites offer ≈1.3 Mpx/s.
	run := func(target int) Stats {
		cfg := Config{
			Satellites:     2,
			FramePeriodSec: 1.5,
			PixelsPerFrame: 1e6,
			TargetBatch:    target,
			MaxBatch:       target,
			MaxWaitSec:     120,
			DurationSec:    600,
			QueueLimit:     1000,
			Seed:           3,
		}
		st, err := Simulate(cfg, proc)
		if err != nil {
			t.Fatal(err)
		}
		if st.Processed == 0 {
			t.Fatalf("target %d processed nothing", target)
		}
		return st
	}
	small := run(1)
	optimal := run(proc.OptimalTargetBatch())
	if optimal.EnergyPerFrameJ() >= small.EnergyPerFrameJ() {
		t.Errorf("optimal batch J/frame %v should beat batch-1 %v",
			optimal.EnergyPerFrameJ(), small.EnergyPerFrameJ())
	}
	if optimal.MeanLatencySec <= small.MeanLatencySec {
		t.Errorf("optimal batch latency %v should exceed batch-1 %v",
			optimal.MeanLatencySec, small.MeanLatencySec)
	}
}

func TestDataIntegratorClaim(t *testing.T) {
	// §6: SµDCs integrate variable per-satellite generation, so the
	// device sized for the average workload handles a constellation where
	// half the satellites generate nothing (ocean) and half generate
	// everything — same aggregate, same outcome as uniform generation.
	cfg := baseConfig()
	cfg.Satellites = 16
	cfg.DurationSec = 600
	cfg.QueueLimit = 200

	offered := float64(cfg.Satellites) * cfg.PixelsPerFrame / cfg.FramePeriodSec
	proc := fixedRate{pixelsPerSec: offered * 0.6, watts: 100} // sized for ~the 50% average

	uniform := cfg
	uniform.KeepProb = func(int, float64) float64 { return 0.5 }
	stU, err := Simulate(uniform, proc)
	if err != nil {
		t.Fatal(err)
	}

	skewed := cfg
	skewed.KeepProb = func(sat int, _ float64) float64 {
		if sat%2 == 0 {
			return 1.0 // land imagers
		}
		return 0.0 // ocean imagers
	}
	stS, err := Simulate(skewed, proc)
	if err != nil {
		t.Fatal(err)
	}

	// Both patterns offer ~the same aggregate and the average-sized
	// device must clear both with negligible loss.
	if stU.Dropped > stU.Arrived/100 || stS.Dropped > stS.Arrived/100 {
		t.Errorf("average-case-sized SµDC dropped frames: uniform %d/%d, skewed %d/%d",
			stU.Dropped, stU.Arrived, stS.Dropped, stS.Arrived)
	}
	ratio := float64(stS.Arrived) / float64(stU.Arrived)
	if math.Abs(ratio-1) > 0.1 {
		t.Errorf("aggregate arrivals differ: skewed/uniform = %v", ratio)
	}
}

func TestDeviceProcessorValidation(t *testing.T) {
	if _, err := NewDeviceProcessor(apps.PanopticSeg, gpusim.JetsonXavier, 1); err == nil {
		t.Error("PS on Xavier accepted")
	}
	if _, err := NewDeviceProcessor(apps.FloodDetection, gpusim.RTX3090, -1); err == nil {
		t.Error("negative replicas accepted")
	}
	p, err := NewDeviceProcessor(apps.FloodDetection, gpusim.RTX3090, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s, j := p.Process(0, 0); s != 0 || j != 0 {
		t.Error("empty batch should be free")
	}
	if b := p.OptimalTargetBatch(); b < 1 {
		t.Errorf("optimal batch %d", b)
	}
}

func TestReplicasScaleThroughput(t *testing.T) {
	one, err := NewDeviceProcessor(apps.OilSpill, gpusim.RTX3090, 1)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := NewDeviceProcessor(apps.OilSpill, gpusim.RTX3090, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Same per-device batch: 10 replicas process 10× the frames in the
	// same time at 10× the energy.
	s1, j1 := one.Process(8, 8e6)
	s10, j10 := ten.Process(80, 80e6)
	if math.Abs(s10-s1)/s1 > 1e-9 {
		t.Errorf("gang time %v vs single %v", s10, s1)
	}
	if math.Abs(j10-10*j1)/j1 > 1e-6 {
		t.Errorf("gang energy %v vs 10× single %v", j10, 10*j1)
	}
}
