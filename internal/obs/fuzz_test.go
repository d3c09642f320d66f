package obs

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"
)

// floatsFromBytes decodes the fuzzer's byte stream into float64 samples,
// eight bytes per sample — the raw-bits decoding reaches every value
// including NaN payloads, ±Inf, subnormals, and negative zero.
func floatsFromBytes(data []byte) []float64 {
	var out []float64
	for len(data) >= 8 {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
		data = data[8:]
	}
	return out
}

// bits encodes values back into the fuzz corpus byte format.
func bits(vs ...float64) []byte {
	b := make([]byte, 0, 8*len(vs))
	for _, v := range vs {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	return b
}

// FuzzQuantile drives Histogram.Observe/Quantile with arbitrary samples
// and quantiles and checks the accumulator's contract: NaN samples are
// dropped and everything else counted; quantiles never panic, never
// manufacture a NaN from non-NaN samples, stay inside the observed
// [min, max], clamp out-of-range q to the exact min/max, and remain
// monotone in q.
func FuzzQuantile(f *testing.F) {
	f.Add([]byte{}, 0.5)
	f.Add(bits(0.42), 0.95)                                          // single sample
	f.Add(bits(1, 1, 1, 1), 0.5)                                     // point mass
	f.Add(bits(math.NaN(), 2, math.NaN()), 0.9)                      // NaN dropped
	f.Add(bits(math.Inf(1), math.Inf(-1), 3), 0.5)                   // infinite span
	f.Add(bits(0.01, 0.1, 1, 10, 100), math.NaN())                   // NaN quantile
	f.Add(bits(-1, 0, math.Copysign(0, -1)), -2.0)                   // q below range
	f.Add(bits(5e-324, math.MaxFloat64), 2.0)                        // q above range
	f.Add(bits(0.3, 0.31, 0.32, 0.33, 0.34, 0.35, 7200, 9000), 0.95) // tail

	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		samples := floatsFromBytes(data)
		h := NewHistogram(LatencyBuckets)
		var kept []float64
		for _, v := range samples {
			h.Observe(v)
			if !math.IsNaN(v) {
				kept = append(kept, v)
			}
		}
		if h.Count() != int64(len(kept)) {
			t.Fatalf("Count = %d after %d non-NaN observations", h.Count(), len(kept))
		}

		got := h.Quantile(q)
		if len(kept) == 0 {
			if got != 0 {
				t.Fatalf("Quantile(%v) of empty histogram = %v, want 0", q, got)
			}
			return
		}
		min, max := kept[0], kept[0]
		for _, v := range kept[1:] {
			if v < min {
				min = v
			}
			if v > max {
				max = v
			}
		}
		if math.IsNaN(got) {
			t.Fatalf("Quantile(%v) = NaN from non-NaN samples (min=%v max=%v)", q, min, max)
		}
		if got < min || got > max {
			t.Fatalf("Quantile(%v) = %v outside observed range [%v, %v]", q, got, min, max)
		}
		// Out-of-range and NaN q clamp to the exact extremes.
		if (q <= 0 || math.IsNaN(q)) && got != min {
			t.Fatalf("Quantile(%v) = %v, want exact min %v", q, got, min)
		}
		if q >= 1 && got != max {
			t.Fatalf("Quantile(%v) = %v, want exact max %v", q, got, max)
		}
		// Monotone in q.
		if p50, p95 := h.Quantile(0.5), h.Quantile(0.95); p50 > p95 {
			t.Fatalf("Quantile not monotone: p50 %v > p95 %v", p50, p95)
		}
	})
}

// contains reports whether v (compared by bits, so NaN matches NaN) is an
// element of xs.
func contains(xs []float64, v float64) bool {
	for _, x := range xs {
		if math.Float64bits(x) == math.Float64bits(v) || x == v {
			return true
		}
	}
	return false
}

// FuzzSummarize drives Summarize and Percentile with arbitrary samples
// and quantiles: no input may panic, Count always matches the sample
// size, Percentile always returns an element of the sample, and on
// NaN-free samples the summary's Max is the true maximum with P95 an
// element no greater than it.
func FuzzSummarize(f *testing.F) {
	f.Add([]byte{}, 0.95)
	f.Add(bits(1.5), 0.5)                           // single sample
	f.Add(bits(2, 2, 2, 2, 2), 0.95)                // point mass
	f.Add(bits(math.NaN(), 1, math.NaN()), 0.5)     // NaN poisons the sort
	f.Add(bits(math.Inf(1), math.Inf(-1), 0), 0.95) // infinities
	f.Add(bits(3, 1, 2, 5, 4), math.NaN())          // NaN quantile → median
	f.Add(bits(math.Copysign(0, -1), 0), -1.0)      // q below range
	f.Add(bits(5e-324, math.MaxFloat64), 2.0)       // q above range

	f.Fuzz(func(t *testing.T, data []byte, q float64) {
		xs := floatsFromBytes(data)
		s := Summarize(xs)
		if s.Count != len(xs) {
			t.Fatalf("Count = %d, want %d", s.Count, len(xs))
		}
		if len(xs) == 0 {
			if s != (Summary{}) {
				t.Fatalf("empty sample summarized to %+v, want zero", s)
			}
			return
		}
		if p := Percentile(xs, q); !contains(xs, p) {
			t.Fatalf("Percentile(%v) = %v is not an element of the sample", q, p)
		}

		hasNaN := false
		max := math.Inf(-1)
		for _, v := range xs {
			if math.IsNaN(v) {
				hasNaN = true
			}
			if v > max {
				max = v
			}
		}
		if hasNaN {
			return // NaN order is unspecified; only the no-panic/count contract holds
		}
		if s.Max != max {
			t.Fatalf("Max = %v, want %v", s.Max, max)
		}
		if !contains(xs, s.P95) {
			t.Fatalf("P95 = %v is not an element of the sample", s.P95)
		}
		if s.P95 > s.Max {
			t.Fatalf("P95 %v > Max %v", s.P95, s.Max)
		}
	})
}

// FuzzObserveAll checks ObserveAll against one Observe per sample. The
// samples come in any order, with NaN, ±Inf and repeats; edges turns the
// samples it flags into bucket bounds or their float neighbours. They are
// recorded on the latency layout, a short one, an empty one or one that
// repeats bounds, in ObserveAll calls of 1 + cut%17 samples, and the two
// histograms' full snapshots must match bit for bit.
func FuzzObserveAll(f *testing.F) {
	f.Add(bits(3, 2.5, 2.4, 1, 0.2, 0.01, 0.009), uint64(0), uint8(0), uint8(16))
	f.Add(bits(0.1, 5, 0.1, 7200, 1e9, -1, 0.5), uint64(0), uint8(1), uint8(2))
	f.Add(bits(math.NaN(), math.Inf(1), math.Inf(-1), 2, 2, 2, math.NaN()), uint64(0), uint8(0), uint8(0))
	f.Add(bits(1, 2, 3, 4, 5, 6, 7, 8), uint64(0xff), uint8(0), uint8(3))
	f.Add(bits(0.5, 1.5, 1, 0, math.Copysign(0, -1), 2), uint64(0x2a), uint8(3), uint8(5))
	f.Add(bits(4, 3, 2), uint64(0), uint8(2), uint8(1))

	layouts := [][]float64{LatencyBuckets, CountBuckets, nil, {0, 0, 1, 1, 2}}
	f.Fuzz(func(t *testing.T, data []byte, edges uint64, layout, cut uint8) {
		bounds := layouts[int(layout)%len(layouts)]
		samples := floatsFromBytes(data)
		for j, v := range samples {
			if edges>>(j%64)&1 == 0 || len(bounds) == 0 {
				continue
			}
			b := math.Float64bits(v)
			edge := bounds[b%uint64(len(bounds))]
			switch b >> 32 % 3 {
			case 1:
				edge = math.Nextafter(edge, math.Inf(-1))
			case 2:
				edge = math.Nextafter(edge, math.Inf(1))
			}
			samples[j] = edge
		}
		batched, single := NewHistogram(bounds), NewHistogram(bounds)
		batched.ObserveAll(nil)
		for rest, size := samples, 1+int(cut%17); len(rest) > 0; {
			k := min(size, len(rest))
			batched.ObserveAll(rest[:k])
			rest = rest[k:]
		}
		for _, v := range samples {
			single.Observe(v)
		}
		if b, s := fmt.Sprintf("%+v", batched.snapshot("")), fmt.Sprintf("%+v", single.snapshot("")); b != s {
			t.Fatalf("ObserveAll(%v) on %v:\n got %s\nwant %s", samples, bounds, b, s)
		}
	})
}
