package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// sample is one timed op.
type sample struct {
	ms     float64
	allocB uint64
}

// measure times f. With gc it first forces a collection, so collector work
// left by earlier ops is not charged to f. With alloc it also counts the
// heap bytes f allocates; runtime.ReadMemStats stops the world, so replays
// after the first pass skip it.
func measure(gc, alloc bool, f func()) sample {
	if gc {
		runtime.GC()
	}
	var m0, m1 runtime.MemStats
	if alloc {
		runtime.ReadMemStats(&m0)
	}
	t0 := time.Now()
	f()
	d := time.Since(t0)
	if alloc {
		runtime.ReadMemStats(&m1)
	}
	return sample{ms: float64(d.Nanoseconds()) / 1e6, allocB: m1.TotalAlloc - m0.TotalAlloc}
}

// passes is how many passes over its op list a workload makes in a run of
// seconds: seconds over one pass's nominal time on the machine the
// benchmark was sized on, and at least least. It depends on --seconds
// alone, never on how fast the ops run, so every commit a comparison runs
// times each op the same number of times and gets the same estimators.
func passes(seconds, nominalPassSec float64, least int) int {
	return max(least, int(math.Round(seconds/nominalPassSec)))
}

// replayFor runs a fixed list of n ops in order, starting over at the end,
// until seconds have passed since the first op began; at least one op
// runs. Only the traced run uses it: its figures are medians of spans,
// which the number of ops does not bias.
func replayFor(n int, seconds float64, do func(i, pass int)) {
	start := time.Now()
	for k := 0; k == 0 || time.Since(start).Seconds() < seconds; k++ {
		do(k%n, k/n)
	}
}

// floors keeps each op's best wall time over a run's passes. The number of
// passes is fixed by --seconds (see passes), so every op's floor is the
// best of the same number of replays on any commit. The machine's speed
// drifts over seconds and interference only ever adds time, so the best of
// an op's replays, spread across the run, is its steadiest estimate.
type floors []float64

func newFloors(n int) floors {
	f := make(floors, n)
	for i := range f {
		f[i] = math.Inf(1)
	}
	return f
}

func (f floors) add(i int, ms float64) { f[i] = math.Min(f[i], ms) }

// of returns the floors of the ops keep selects that were timed.
func (f floors) of(keep func(i int) bool) []float64 {
	var out []float64
	for i, v := range f {
		if !math.IsInf(v, 1) && keep(i) {
			out = append(out, v)
		}
	}
	return out
}

func all(int) bool { return true }

// derive returns op i's seed from the workload seed (splitmix64), so
// adjacent ops and adjacent workload seeds land far apart.
func derive(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (NaN when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean of xs (NaN when empty).
func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

// tailBeyond is how many ops must lie beyond the reported tail.
const tailBeyond = 10

// tail returns the highest percentile of xs with at least tailBeyond
// values beyond it: the (n-tailBeyond)/n quantile, taken as the sorted
// value with exactly tailBeyond above it. ok is false when n is too small
// for that percentile to reach the median.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n < 2*tailBeyond+1 {
		return math.NaN(), math.NaN(), false
	}
	s := sorted(xs)
	return s[n-tailBeyond-1], 100 * float64(n-tailBeyond) / float64(n), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
