package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric. All methods are
// safe on a nil receiver (no-ops) and for concurrent use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n (negative deltas are ignored; counters only go up).
func (c *Counter) Add(n int) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(int64(n))
}

// Value returns the current count (zero on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value-wins float metric.
type Gauge struct {
	bits atomic.Uint64
}

// Set records v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the last set value (zero on nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram accumulates a sample into fixed buckets plus running
// sum/min/max, so it can report both exact moments and approximate
// percentiles without retaining the sample. Observe takes a short mutex;
// the layouts are fixed at creation so no allocation happens after that.
type Histogram struct {
	bounds []float64 // ascending upper bounds; counts has one extra overflow slot

	mu       sync.Mutex
	counts   []int64
	count    int64
	sum      float64
	min, max float64
}

// newHistogram builds a histogram over the given upper bounds. A nil or
// empty layout gets a single overflow bucket (moments still work).
func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// NewHistogram builds a standalone histogram over the given bucket upper
// bounds, outside any registry. Simulators use it as a memory-flat sample
// accumulator (exact count/sum/min/max, bucket-resolution quantiles) even
// when observability is disabled.
func NewHistogram(bounds []float64) *Histogram {
	return newHistogram(bounds)
}

// Observe records one sample. NaN samples are dropped.
func (h *Histogram) Observe(v float64) {
	h.ObserveN(v, 1)
}

// ObserveN records n samples of the same value v, leaving the histogram
// bit-identical to n calls of Observe(v): the bucket search and the lock
// happen once, and the running sum takes AddN, which reproduces n rounded
// additions of v exactly (adding v·n would not). NaN samples and n ≤ 0
// are dropped.
func (h *Histogram) ObserveN(v float64, n int) {
	if h == nil || n <= 0 || math.IsNaN(v) {
		return
	}
	// Bucket i is the first whose upper bound is ≥ v; the overflow slot
	// when v exceeds every bound. Binary search, since layouts reach 96
	// buckets (LatencyBuckets).
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i] += int64(n)
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count += int64(n)
	if n > 1 {
		h.sum = AddN(h.sum, v, n)
	} else {
		h.sum += v
	}
	h.mu.Unlock()
}

// AddN returns x after n sequential float64 additions of v (x += v, n
// times), bit for bit, in time that grows with the binades the running
// sum crosses rather than with n. n ≤ 0 returns x.
//
// Inside one binade every float is a multiple K·w of the binade's ulp w,
// and an addition whose exact sum stays in the binade lands on the
// nearest multiple, ties to even K. If v/w is not a half-integer, every
// such addition adds the same round(v/w)·w. If it is, a tie leaves K
// even, so every addition after the first in the binade adds the even
// neighbour of v/w. Either way a stretch of additions inside one binade
// is one multiply-add on K; only the first addition in a binade and the
// ones that may cross its edge are taken singly. The subnormals and the
// lowest normal binade share w = 2^-1074 on both sides of zero, where
// every sum is exact.
func AddN(x, v float64, n int) float64 {
	const (
		signBit = 1 << 63
		lo      = int64(1) << 52 // the smallest mantissa K of a normal binade
		hi      = int64(1)<<53 - 1
	)
	for n > 0 {
		y := x + v
		n--
		// y == x: every further addition repeats it. A non-finite sum
		// absorbs every further addend.
		if n == 0 || y == x || math.IsInf(y, 0) || math.IsNaN(y) {
			return y
		}
		bx, by := math.Float64bits(x), math.Float64bits(y)
		if binade(bx) != binade(by) {
			x = y
			continue
		}
		// y = ±K·w with w = 2^(e-1074).
		e := max(int(by>>52&0x7ff), 1) - 1
		neg := by&signBit != 0
		k := int64(by&^signBit) - int64(e)<<52
		t := math.Ldexp(v, 1074-e) // v/w, exact
		var steps int64            // further additions that stay in the binade
		if e == 0 {
			// Shared subnormal grid: K is signed and every sum is exact.
			if neg {
				k = -k
			}
			d := int64(t)
			if d > 0 {
				steps = (hi - k) / d
			} else {
				steps = (hi + k) / -d
			}
			steps = min(steps, int64(n))
			k += steps * d
			neg = k < 0
			if neg {
				k = -k
			}
		} else {
			// Normal binade: K is y's magnitude, and tm how far one
			// addition moves it.
			tm := t
			if neg {
				tm = -t
			}
			d := int64(math.RoundToEven(tm))
			switch {
			case tm > 0 && d == 0:
				return y
			case tm > 0:
				// Every exact sum stays below 2^53·w while K+d ≤ hi.
				steps = (hi - k) / d
			case k == lo:
				// At the binade's floor the next exact sum may fall out
				// of it.
				x = y
				continue
			case d == 0:
				return y
			default:
				// Every exact sum stays at or above 2^52·w while K+d > lo.
				steps = (k - lo - 1) / -d
			}
			steps = min(steps, int64(n))
			k += steps * d
		}
		n -= int(steps)
		x = math.Float64frombits(uint64(int64(e)<<52 + k))
		if neg {
			x = -x
		}
	}
	return x
}

// binade names the grid a float's bits lie on: its sign and exponent, or
// 0 for the subnormals and the lowest normal binade, which share one grid
// across zero.
func binade(b uint64) uint64 {
	if b>>52&0x7ff <= 1 {
		return 0
	}
	return b >> 52
}

// Count returns the number of observations (zero on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the sample mean (zero when empty or nil).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest observation (zero when empty or nil).
func (h *Histogram) Max() float64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile from the bucket counts using the same
// nearest-rank convention as PercentileSorted (index ⌊q·(n−1)⌋): it
// finds the bucket holding the target rank and interpolates linearly
// within it, with the bucket edges tightened to the observed min/max. The
// rank's true sample lies in the same bucket, so the estimate is always
// within one bucket width of the exact sorted-sample quantile — the trade
// the fixed O(buckets) layout buys. q ≤ 0 and q ≥ 1 report the exact
// tracked min and max.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	if math.IsNaN(q) || q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	if q == 0 {
		return h.min
	}
	if q == 1 {
		return h.max
	}
	rank := int64(q * float64(h.count-1))
	var before int64 // observations in buckets preceding the rank's bucket
	for i, c := range h.counts {
		if before+c <= rank {
			before += c
			continue
		}
		// Bucket i covers sorted ranks [before, before+c); tighten its
		// nominal edges (bounds[i-1], bounds[i]] to the observed range.
		lo, hi := h.min, h.max
		if i > 0 && h.bounds[i-1] > lo {
			lo = h.bounds[i-1]
		}
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
		}
		if hi < lo {
			hi = lo
		}
		// Upper-leaning position: buckets are (lo, hi], so the last rank
		// in the bucket maps to hi, matching the pre-interpolation
		// upper-bound convention at bucket edges.
		//
		// Infinite samples make the bucket span non-finite (lo = -Inf min
		// or hi = +Inf max), where interpolating would manufacture a NaN;
		// fall back to the upper edge, which keeps the estimate inside
		// [min, max].
		span := hi - lo
		if math.IsInf(span, 0) || math.IsNaN(span) {
			return hi
		}
		frac := float64(rank-before+1) / float64(c)
		return lo + frac*span
	}
	return h.max
}

// Merge folds another histogram's accumulated state into h. Simulators use
// it to publish a run-local accumulator into a registry at end of run: the
// local histogram keeps per-run results isolated (a registry shared across
// runs would otherwise leak one run's samples into the next run's
// quantiles), while the registry copy still exposes the full distribution.
//
// Count, sum, min, and max merge exactly. Each source bucket's population
// is attributed at its upper edge (clamped to the observed max), which
// lands it in the identical bucket when both layouts match — the always
// case in this repo's fixed layouts — and within one destination bucket
// otherwise. Merging a nil or empty histogram is a no-op.
func (h *Histogram) Merge(o *Histogram) {
	if h == nil || o == nil || h == o {
		return
	}
	o.mu.Lock()
	count, sum, omin, omax := o.count, o.sum, o.min, o.max
	counts := append([]int64(nil), o.counts...)
	o.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range counts {
		if c == 0 {
			continue
		}
		v := omax
		if i < len(o.bounds) && o.bounds[i] < v {
			v = o.bounds[i]
		}
		h.counts[sort.SearchFloat64s(h.bounds, v)] += c
	}
	if h.count == 0 || omin < h.min {
		h.min = omin
	}
	if h.count == 0 || omax > h.max {
		h.max = omax
	}
	h.count += count
	h.sum += sum
}

// snapshot copies the histogram state under its lock.
func (h *Histogram) snapshot(name string) HistogramSnapshot {
	s := HistogramSnapshot{
		Name:   name,
		Bounds: append([]float64(nil), h.bounds...),
	}
	s.P50 = h.Quantile(0.50)
	s.P95 = h.Quantile(0.95)
	h.mu.Lock()
	defer h.mu.Unlock()
	s.Count = h.count
	s.Sum = h.sum
	s.Min = h.min
	s.Max = h.max
	if h.count > 0 {
		s.Mean = h.sum / float64(h.count)
	}
	s.Counts = append([]int64(nil), h.counts...)
	return s
}

// ExpBuckets returns n exponentially spaced upper bounds start, start·f,
// start·f², … — the layout for quantities spanning orders of magnitude.
func ExpBuckets(start, factor float64, n int) []float64 {
	if n <= 0 || start <= 0 || factor <= 1 {
		return nil
	}
	b := make([]float64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// LinearBuckets returns n evenly spaced upper bounds start, start+w, … —
// the layout for bounded quantities like utilizations.
func LinearBuckets(start, width float64, n int) []float64 {
	if n <= 0 || width <= 0 {
		return nil
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = start + float64(i)*width
	}
	return b
}

// Shared fixed layouts, so the same quantity lands in the same buckets
// across packages.
var (
	// TimeBuckets spans 1 µs to ~4.6 h (durations in seconds).
	TimeBuckets = ExpBuckets(1e-6, 4, 17)
	// SizeBuckets spans 1 kbit to ~68 Gbit (queue depths, payloads in bits).
	SizeBuckets = ExpBuckets(1e3, 4, 14)
	// RatioBuckets covers [0, 1] at 0.05 resolution (utilizations).
	RatioBuckets = LinearBuckets(0.05, 0.05, 20)
	// CountBuckets spans 1 to 4096 (batch sizes, attempt counts).
	CountBuckets = ExpBuckets(1, 2, 13)
	// LatencyBuckets spans 10 ms to ~1.6 h at 15% resolution (96 buckets).
	// The finer layout exists for accumulators whose quantiles are
	// *reported*, not just monitored: with within-bucket interpolation the
	// p95 it yields stays within one 15%-wide bucket of the exact
	// sorted-sample value, at O(buckets) memory over month-scale runs.
	LatencyBuckets = ExpBuckets(0.01, 1.15, 96)
)
