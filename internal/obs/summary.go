package obs

import (
	"math"
	"sort"
)

// Summary condenses a sample into the quantities the experiment tables
// report: count, mean, p95 and max.
type Summary struct {
	Count int
	Mean  float64
	P95   float64
	Max   float64
}

// Summarize computes the exact summary of xs from the sorted sample, the
// oracle the bucket-derived summaries are tested against. An empty sample
// yields a zero Summary.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return Summary{
		Count: len(sorted),
		Mean:  sum / float64(len(sorted)),
		P95:   PercentileSorted(sorted, 0.95),
		Max:   sorted[len(sorted)-1],
	}
}

// Percentile returns the q-quantile (q in [0,1]) of an unsorted sample.
func Percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	sort.Float64s(sorted)
	return PercentileSorted(sorted, q)
}

// PercentileSorted returns the q-quantile of an already-sorted sample using
// the nearest-rank index ⌊q·(n−1)⌋, the convention Histogram.Quantile
// follows. A NaN quantile yields the median: NaN passes both range clamps
// below, and int(NaN·(n−1)) is a huge negative index that would panic.
func PercentileSorted(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	if math.IsNaN(q) {
		q = 0.5
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return sorted[int(q*float64(len(sorted)-1))]
}
