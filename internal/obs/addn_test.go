package obs

import (
	"math"
	"math/rand"
	"testing"
)

// refObserveNSum is the per-sample engine's ObserveN sum, verbatim: v is
// added to the running sum once per sample. It is the oracle AddN must
// reproduce bit for bit.
func refObserveNSum(sum, v float64, n int) float64 {
	for k := 0; k < n; k++ {
		sum += v
	}
	return sum
}

// sameFloat compares by bits, so signed zeros differ and NaN matches NaN.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkAddN fails t when AddN(x, v, n) differs from the sequential sum.
func checkAddN(t *testing.T, x, v float64, n int) {
	t.Helper()
	if got, want := AddN(x, v, n), refObserveNSum(x, v, n); !sameFloat(got, want) {
		t.Fatalf("AddN(%v, %v, %d) = %v (%#016x), sequential adds give %v (%#016x)",
			x, v, n, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// ulp returns the spacing of the float grid just above |x|.
func ulp(x float64) float64 {
	x = math.Abs(x)
	return math.Nextafter(x, math.Inf(1)) - x
}

// TestAddNMatchesSequentialAdds drives AddN through the shapes that make
// a closed form of repeated addition go wrong: addends that tie half-way
// between grid points, sums that cross many binades, shrinking sums that
// cross zero, the subnormal grid, overflow, and the now − born latencies
// netsim feeds ObserveN.
func TestAddNMatchesSequentialAdds(t *testing.T) {
	for _, c := range []struct {
		x, v float64
		n    int
	}{
		{0, 0.1, 1000},
		{1 << 53, 1, 10},             // fixed point: ties to even at 2^53
		{1<<53 - 4, 1, 10},           // crosses into the ulp-2 binade
		{1<<53 - 4, 3, 10},           // 3/2 ties once the ulp is 2
		{1<<52 + 1, 0.5, 5},          // tie from an odd mantissa
		{1<<52 + 1, -0.5, 5},         // ...shrinking onto the binade floor
		{1 << 52, -0.25, 8},          // floor: the exact sum leaves the binade
		{1e6, -3.7, 1e6},             // shrinks through zero and grows negative
		{math.Copysign(0, -1), 0, 3}, // -0 + 0 = +0
		{5e-324, 5e-324, 1 << 20},    // subnormal grid into the normal range
		{-1e-310, 3e-312, 4000},      // subnormals across zero
		{math.MaxFloat64 / 2, math.MaxFloat64 / 7, 20},
		{1, math.Inf(1), 4},
		{math.Inf(1), math.Inf(-1), 4},
		{1, math.NaN(), 4},
		{3, 1, 0},
		{3, 1, -5},
	} {
		checkAddN(t, c.x, c.v, c.n)
	}

	rng := rand.New(rand.NewSource(1))
	randFloat := func(minExp, maxExp int) float64 {
		f := math.Ldexp(1+rng.Float64(), minExp+rng.Intn(maxExp-minExp+1))
		if rng.Intn(2) == 0 {
			f = -f
		}
		return f
	}
	for i := 0; i < 20000; i++ {
		n := 1 + rng.Intn(3000)
		var x, v float64
		switch i % 6 {
		case 0: // latency sums: differences of tenth-second step times
			x = float64(rng.Intn(1e6)) * 0.1
			v = float64(rng.Intn(3000))*0.1 - float64(rng.Intn(3000))*0.1
		case 1: // ties and near-ties on x's grid
			x = randFloat(-30, 60)
			v = math.Ldexp(ulp(x)*(float64(rng.Intn(9))+[]float64{0.5, 0.25, 0.75, 0}[rng.Intn(4)]), rng.Intn(4)-1)
			if rng.Intn(2) == 0 {
				v = -v
			}
		case 2: // unrelated magnitudes
			x, v = randFloat(-40, 40), randFloat(-40, 40)
		case 3: // shrinking through zero
			x = randFloat(0, 30)
			v = -x / float64(1+rng.Intn(n)) * (0.5 + rng.Float64())
		case 4: // the subnormal grid
			x = float64(rng.Int63n(1<<54)-1<<53) * 5e-324
			v = float64(rng.Int63n(1<<40)-1<<39) * 5e-324
		case 5: // many binades from a tiny start
			x = randFloat(-60, -40)
			v = randFloat(-20, -10)
			if (x < 0) != (v < 0) {
				v = -v
			}
		}
		checkAddN(t, x, v, n)
	}
}

// FuzzObserveN checks ObserveN's running sum against the per-sample
// engine's loop for arbitrary starting sums, addends and counts. A
// non-zero tie argument swaps the addend for one that ties half-way
// between grid points of the starting sum's binade, the case where
// rounding depends on the mantissa's parity.
func FuzzObserveN(f *testing.F) {
	f.Add(0.0, 0.1, uint16(1000), uint8(0))
	f.Add(float64(1<<53-4), 3.0, uint16(10), uint8(1))
	f.Add(float64(1<<52+1), -0.5, uint16(5), uint8(0))
	f.Add(1e6, -3.7, uint16(60000), uint8(0))
	f.Add(5e-324, 5e-324, uint16(65535), uint8(0))
	f.Add(123.456, 7.0, uint16(300), uint8(3))

	f.Fuzz(func(t *testing.T, x, v float64, n uint16, tie uint8) {
		if tie != 0 {
			v = math.Copysign(ulp(x)*(float64(tie%16)+0.5), v)
		}
		checkAddN(t, x, v, int(n))
		if math.IsNaN(x) || math.IsNaN(v) {
			return
		}
		batched, single := NewHistogram(LatencyBuckets), NewHistogram(LatencyBuckets)
		batched.Observe(x)
		single.Observe(x)
		batched.ObserveN(v, int(n))
		for k := 0; k < int(n); k++ {
			single.Observe(v)
		}
		if b, s := batched.snapshot("").Sum, single.snapshot("").Sum; !sameFloat(b, s) {
			t.Fatalf("ObserveN(%v, %d) after %v: sum %v, %d Observe calls give %v", v, n, x, b, n, s)
		}
	})
}
