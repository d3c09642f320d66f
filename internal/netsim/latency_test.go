package netsim

import (
	"math"
	"runtime"
	"testing"

	"spacedc/internal/obs"
	statsutil "spacedc/internal/stats"
	"spacedc/internal/units"
)

// latencyBucketWidth returns the width of the obs.LatencyBuckets bucket
// holding v — the documented tolerance of the bucket-derived percentiles.
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

// faultHeavyScenario drives heavy retransmission traffic: 5% per-link
// outage on an RF ring keeps segments looping through timeout/backoff, so
// the latency distribution grows a long tail — exactly the regime where
// the retired O(delivered) latency slice grew without bound.
func faultHeavyScenario() Scenario {
	sc := ringScenario(8)
	sc.Faults = FaultConfig{LinkOutage: 0.05, LinkMTTRSec: 10}
	return sc
}

// TestNetsimLatencyHistogramTracksExact captures every measured delivery
// latency through the test tap and asserts Result.LatencySec — now derived
// from the run-local bucket accumulator — matches an exact stats.Summarize
// of the same samples: count and max exact, mean to rounding, p95 within
// one LatencyBuckets bucket width. The registry's merged histogram must
// agree too, proving Merge carries the run-local distribution across
// intact.
func TestNetsimLatencyHistogramTracksExact(t *testing.T) {
	var exact []float64
	latencyTap = func(l float64) { exact = append(exact, l) }
	defer func() { latencyTap = nil }()

	sc := faultHeavyScenario()
	reg := obs.New()
	sc.Obs = reg
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != r.DeliveredSegs {
		t.Fatalf("tap saw %d latencies, result delivered %d", len(exact), r.DeliveredSegs)
	}
	if r.Retransmits == 0 {
		t.Fatal("scenario not fault-heavy: no retransmissions — tail untested")
	}
	if r.LatencySec.Count != len(exact) {
		t.Errorf("LatencySec.Count = %d, want %d", r.LatencySec.Count, len(exact))
	}

	want := statsutil.Summarize(exact)
	if math.Abs(r.LatencySec.Mean-want.Mean) > 1e-9*want.Mean {
		t.Errorf("Mean = %v, want exact %v", r.LatencySec.Mean, want.Mean)
	}
	if r.LatencySec.Max != want.Max {
		t.Errorf("Max = %v, want exact %v", r.LatencySec.Max, want.Max)
	}
	tol := latencyBucketWidth(want.P95)
	if math.Abs(r.LatencySec.P95-want.P95) > tol {
		t.Errorf("P95 = %v, exact sorted-sample p95 = %v: off by %v, tolerance one bucket width %v",
			r.LatencySec.P95, want.P95, math.Abs(r.LatencySec.P95-want.P95), tol)
	}

	// The merged registry histogram must reproduce the run-local one.
	var snap obs.HistogramSnapshot
	found := false
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "netsim.segment_latency_secs" {
			snap, found = h, true
			break
		}
	}
	if !found {
		t.Fatal("registry missing merged netsim.segment_latency_secs histogram")
	}
	if snap.Count != int64(len(exact)) {
		t.Errorf("merged histogram count = %d, want %d", snap.Count, len(exact))
	}
	if math.Abs(snap.Mean-want.Mean) > 1e-9*want.Mean {
		t.Errorf("merged histogram mean = %v, want %v", snap.Mean, want.Mean)
	}
	if snap.Max != want.Max {
		t.Errorf("merged histogram max = %v, want exact %v", snap.Max, want.Max)
	}
	p50 := statsutil.Percentile(exact, 0.5)
	if math.Abs(snap.P50-p50) > latencyBucketWidth(p50) {
		t.Errorf("merged histogram p50 = %v, exact = %v: beyond one bucket width %v",
			snap.P50, p50, latencyBucketWidth(p50))
	}
}

// TestNetsimRunAllocsFlat is netsim's O(buckets)-not-O(segments) guard,
// mirroring sched's TestSimulateAllocsMemoryFlat: 10× the offered rate
// (10× the segments through the same fault schedule — faults draw only on
// the step clock, not the traffic) must not allocate meaningfully more.
// Latency goes into a fixed-bucket histogram, the transport window holds
// one group per step and one bit per segment, and link queues and the
// in-flight list hold one entry per segment run, all compacted in place,
// so only the window's bitmap grows with the offered rate; a per-segment
// latency slice or per-segment queue entries would show up here as
// allocations linear in offered load. TestNetsimRunBytesFlat checks the
// bytes, which a reused slice that doubles as it grows hides from a count.
func TestNetsimRunAllocsFlat(t *testing.T) {
	run := func(rateScale float64) func() {
		sc := faultHeavyScenario()
		sc.PerSat = units.DataRate(float64(sc.PerSat) * rateScale)
		return func() {
			if _, err := Run(sc); err != nil {
				t.Fatal(err)
			}
		}
	}
	low := testing.AllocsPerRun(3, run(1))
	high := testing.AllocsPerRun(3, run(10))
	if high > low*1.5+64 {
		t.Errorf("10× offered load cost %v allocs vs %v: latency/transport accounting is not memory-flat", high, low)
	}
}

// TestNetsimRunBytesFlat is the byte-level twin of TestNetsimRunAllocsFlat.
// A slice that doubles as it grows makes only logarithmically many
// allocations, so the count check cannot see a window holding one entry
// per outstanding segment, but its bytes grow with the offered load, and
// so do the collections and page faults they cost. The window costs one
// group per step and one bit per segment, so at 10× the fault-heavy load,
// where lost segments hold windows open for most of the run, the whole run
// must allocate less than a few bytes per offered segment.
func TestNetsimRunBytesFlat(t *testing.T) {
	sc := faultHeavyScenario()
	sc.PerSat *= 10
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r, err := Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	perSeg := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(r.OfferedSegs)
	t.Logf("%.2f bytes per offered segment over %d segments", perSeg, r.OfferedSegs)
	if perSeg > 4 {
		t.Errorf("run allocated %.1f bytes per offered segment: transport accounting is not memory-flat", perSeg)
	}
}
