package sched

import (
	"runtime"
	"testing"

	"spacedc/internal/apps"
	"spacedc/internal/gpusim"
)

func BenchmarkSimulateHour(b *testing.B) {
	proc, err := NewDeviceProcessor(apps.FloodDetection, gpusim.RTX3090, 4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := Config{
		Satellites:     64,
		FramePeriodSec: 1.5,
		PixelsPerFrame: 8.8e6,
		TargetBatch:    64,
		MaxWaitSec:     10,
		DurationSec:    3600,
		QueueLimit:     512,
		Seed:           1,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, proc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateWeekMemoryFlat is the month-scale-mission allocation
// guard: a week of simulated time (~3.2M frames) must allocate O(buckets),
// not O(frames) — the histogram latency accumulator, the frame calendar,
// and the compacting FIFO keep the whole run under a fixed allocation
// budget regardless of duration.
func BenchmarkSimulateWeekMemoryFlat(b *testing.B) {
	cfg := Config{
		Satellites:     8,
		FramePeriodSec: 1.5,
		PixelsPerFrame: 1e6,
		TargetBatch:    16,
		MaxWaitSec:     30,
		DurationSec:    7 * 86400,
		Seed:           1,
	}
	proc := fixedRate{pixelsPerSec: 1e8, watts: 100}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if _, err := Simulate(cfg, proc); err != nil {
		b.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if allocs := m1.Mallocs - m0.Mallocs; allocs > 1000 {
		b.Errorf("week-long run made %d allocations, want O(buckets) (≤1000): latency accounting regressed to O(frames)", allocs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(cfg, proc); err != nil {
			b.Fatal(err)
		}
	}
}
