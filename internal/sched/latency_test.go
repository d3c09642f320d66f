package sched

import (
	"math"
	"testing"

	"spacedc/internal/obs"
)

// latencyBucketWidth returns the width of the obs.LatencyBuckets bucket
// holding v — the documented tolerance of the bucket-derived p95.
func latencyBucketWidth(v float64) float64 {
	b := obs.LatencyBuckets
	i := 0
	for i < len(b) && v > b[i] {
		i++
	}
	if i >= len(b) {
		return math.Inf(1)
	}
	if i == 0 {
		return b[0]
	}
	return b[i] - b[i-1]
}

// TestP95FromBucketsTracksExact runs a long mission, captures every exact
// frame latency through the test tap, and asserts the histogram-backed
// P95LatencySec stays within one LatencyBuckets bucket width of the exact
// sorted-sample percentile the retired O(frames) slice used to report.
// Mean and max must stay exact (the accumulator keeps true running
// sum/count/max).
func TestP95FromBucketsTracksExact(t *testing.T) {
	var exact []float64
	latencyTap = func(l float64) { exact = append(exact, l) }
	defer func() { latencyTap = nil }()

	cfg := Config{
		Satellites:     8,
		FramePeriodSec: 1.5,
		PixelsPerFrame: 1e6,
		KeepProb:       func(int, float64) float64 { return 0.7 },
		TargetBatch:    16,
		MaxWaitSec:     20,
		DurationSec:    100000, // >1 simulated day, ~370k frames offered
		QueueLimit:     256,
		Seed:           11,
	}
	st, err := Simulate(cfg, fixedRate{pixelsPerSec: 4e6, watts: 120})
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != st.Processed {
		t.Fatalf("tap saw %d latencies, stats processed %d", len(exact), st.Processed)
	}
	if st.Processed < 100000 {
		t.Fatalf("mission too short to exercise the accumulator: %d frames", st.Processed)
	}

	wantP95 := obs.Percentile(exact, 0.95)
	tol := latencyBucketWidth(wantP95)
	if got := st.P95LatencySec; math.Abs(got-wantP95) > tol {
		t.Errorf("P95LatencySec = %v, exact sorted-sample p95 = %v: off by %v, tolerance one bucket width %v",
			got, wantP95, math.Abs(got-wantP95), tol)
	}

	var sum, max float64
	for _, l := range exact {
		sum += l
		if l > max {
			max = l
		}
	}
	if wantMean := sum / float64(len(exact)); math.Abs(st.MeanLatencySec-wantMean) > 1e-9*wantMean {
		t.Errorf("MeanLatencySec = %v, want exact %v", st.MeanLatencySec, wantMean)
	}
	if st.MaxLatencySec != max {
		t.Errorf("MaxLatencySec = %v, want exact %v", st.MaxLatencySec, max)
	}
}

// TestSimulateAllocsMemoryFlat is the O(buckets)-not-O(frames) guard: a
// 10× longer mission (10× the frames) must not allocate meaningfully more
// than the short one, so neither latency accounting nor the frame
// calendar may allocate per frame.
func TestSimulateAllocsMemoryFlat(t *testing.T) {
	run := func(durationSec float64) func() {
		cfg := Config{
			Satellites:     8,
			FramePeriodSec: 0.5,
			PixelsPerFrame: 1e6,
			TargetBatch:    8,
			MaxWaitSec:     5,
			DurationSec:    durationSec,
			Seed:           5,
		}
		return func() {
			if _, err := Simulate(cfg, fixedRate{pixelsPerSec: 1e8, watts: 100}); err != nil {
				t.Fatal(err)
			}
		}
	}
	short := testing.AllocsPerRun(3, run(2000)) // ~32k frames
	long := testing.AllocsPerRun(3, run(20000)) // ~320k frames
	if long > short+32 {
		t.Errorf("10× frames cost %v allocs vs %v: latency accounting is not memory-flat", long, short)
	}
	// Absolute ceiling: fixed setup (rng, calendar, queue, histogram) only.
	if long > 150 {
		t.Errorf("long mission allocated %v times, want O(buckets) setup only (≤150)", long)
	}
}
