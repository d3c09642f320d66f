package obs

import (
	"math"
	"math/rand"
	"testing"
)

// bucketWidth returns the width of the layout bucket that holds v: the
// tolerance the histogram quantile is allowed. Values below the first
// bound use the first bucket's span from zero; values beyond the last
// bound fall in the open overflow bucket, where the histogram clamps to
// the observed max, so the caller should keep samples inside the layout.
func bucketWidth(bounds []float64, v float64) float64 {
	i := 0
	for i < len(bounds) && v > bounds[i] {
		i++
	}
	if i >= len(bounds) {
		return math.Inf(1)
	}
	if i == 0 {
		return bounds[0]
	}
	return bounds[i] - bounds[i-1]
}

// TestQuantileTracksPercentileSorted asserts the bucket-interpolated
// quantile stays within one bucket width of the exact sorted-sample
// percentile (same nearest-rank convention) on qualitatively different
// sample shapes: uniform, exponential (heavy tail), and point mass
// (degenerate single-value distribution).
func TestQuantileTracksPercentileSorted(t *testing.T) {
	const n = 20000
	rng := rand.New(rand.NewSource(7))
	shapes := map[string]func() float64{
		"uniform":     func() float64 { return 0.05 + 40*rng.Float64() },
		"exponential": func() float64 { return 0.05 + 3*rng.ExpFloat64() },
		"point-mass":  func() float64 { return 2.7 },
	}
	layouts := map[string][]float64{
		"latency": LatencyBuckets,
		"time":    TimeBuckets,
	}
	for shapeName, draw := range shapes {
		for layoutName, bounds := range layouts {
			h := NewHistogram(bounds)
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw()
				h.Observe(xs[i])
			}
			for _, q := range []float64{0, 0.5, 0.9, 0.95, 0.99, 1} {
				exact := Percentile(xs, q)
				got := h.Quantile(q)
				tol := bucketWidth(bounds, exact)
				if math.IsInf(tol, 1) {
					t.Fatalf("%s/%s q%v: exact %v beyond layout; pick in-range samples", shapeName, layoutName, q, exact)
				}
				if math.Abs(got-exact) > tol+1e-12 {
					t.Errorf("%s/%s q%v: histogram %v vs exact %v — off by %v, tolerance one bucket width %v",
						shapeName, layoutName, q, got, exact, math.Abs(got-exact), tol)
				}
			}
			// Point-mass distributions must come back exact: min == max
			// pins every bucket to the single observed value.
			if shapeName == "point-mass" {
				if got := h.Quantile(0.95); got != 2.7 {
					t.Errorf("point-mass/%s p95 = %v, want exactly 2.7", layoutName, got)
				}
			}
		}
	}
}

// TestQuantileEdges pins the exact-endpoint and empty/nil behavior.
func TestQuantileEdges(t *testing.T) {
	h := NewHistogram(LatencyBuckets)
	for _, v := range []float64{0.3, 1.7, 9.2} {
		h.Observe(v)
	}
	if got := h.Quantile(0); got != 0.3 {
		t.Errorf("q0 = %v, want exact min 0.3", got)
	}
	if got := h.Quantile(1); got != 9.2 {
		t.Errorf("q1 = %v, want exact max 9.2", got)
	}
	if got := h.Quantile(math.NaN()); got != 0.3 {
		t.Errorf("NaN quantile = %v, want min (clamped to 0)", got)
	}
	if got := h.Quantile(-3); got != 0.3 {
		t.Errorf("q-3 = %v, want min", got)
	}
	if got := h.Quantile(7); got != 9.2 {
		t.Errorf("q7 = %v, want max", got)
	}
	if got := NewHistogram(nil).Quantile(0.5); got != 0 {
		t.Errorf("empty quantile = %v, want 0", got)
	}
	var nilH *Histogram
	if got := nilH.Quantile(0.5); got != 0 {
		t.Errorf("nil quantile = %v, want 0", got)
	}
	if nilH.Max() != 0 {
		t.Error("nil max non-zero")
	}
}

// TestObserveNMatchesRepeatedObserve asserts ObserveN(v, n) leaves a
// histogram bit-identical to n calls of Observe(v) — counts, count, sum,
// min, max and quantiles — and that the binary bucket search keeps the
// upper-inclusive convention: a value equal to a bound lands in that
// bound's bucket, one below the first bound in bucket 0, one above the
// last in the overflow slot.
func TestObserveNMatchesRepeatedObserve(t *testing.T) {
	type obsN struct {
		v float64
		n int
	}
	b := LatencyBuckets
	last := b[len(b)-1]
	sequences := map[string][]obsN{
		"finite": {
			{0.1, 7}, {b[0], 3}, {b[0] / 2, 5}, {b[40], 11}, {math.Nextafter(b[40], 0), 2},
			{math.Nextafter(b[40], math.Inf(1)), 2}, {last, 4}, {2 * last, 6}, {0.3, 1000},
			{0.1, 0}, {math.NaN(), 3},
		},
		"plus-inf":  {{1.7, 9}, {math.Inf(1), 3}, {0.02, 5}},
		"minus-inf": {{math.Inf(-1), 2}, {1.7, 9}, {b[10], 4}},
	}
	for name, seq := range sequences {
		batched, single := NewHistogram(b), NewHistogram(b)
		want := make([]int64, len(b)+1)
		for _, o := range seq {
			batched.ObserveN(o.v, o.n)
			for k := 0; k < o.n; k++ {
				single.Observe(o.v)
			}
			if math.IsNaN(o.v) {
				continue
			}
			i := 0 // reference linear scan: first bound ≥ v
			for i < len(b) && o.v > b[i] {
				i++
			}
			want[i] += int64(o.n)
		}
		got, ref := batched.snapshot(name), single.snapshot(name)
		for i := range want {
			if got.Counts[i] != want[i] || ref.Counts[i] != want[i] {
				t.Errorf("%s: bucket %d holds %d (batched) / %d (single), want %d", name, i, got.Counts[i], ref.Counts[i], want[i])
			}
		}
		same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
		if got.Count != ref.Count || !same(got.Sum, ref.Sum) || !same(got.Min, ref.Min) || !same(got.Max, ref.Max) {
			t.Errorf("%s: batched count/sum/min/max %d/%v/%v/%v, single %d/%v/%v/%v",
				name, got.Count, got.Sum, got.Min, got.Max, ref.Count, ref.Sum, ref.Min, ref.Max)
		}
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 0.99, 1} {
			if g, r := batched.Quantile(q), single.Quantile(q); !same(g, r) {
				t.Errorf("%s: Quantile(%v) = %v batched, %v single", name, q, g, r)
			}
		}
	}
}
