package obs

import (
	"math"
	"testing"
)

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 || s.P95 != 0 || s.Max != 0 {
		t.Errorf("empty sample should summarize to zero, got %+v", s)
	}
}

func TestSummarizeKnownSample(t *testing.T) {
	// 1..100: mean 50.5, p95 index ⌊0.95·99⌋ = 94 → value 95, max 100.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	s := Summarize(xs)
	if s.Count != 100 {
		t.Errorf("count = %d, want 100", s.Count)
	}
	if math.Abs(s.Mean-50.5) > 1e-12 {
		t.Errorf("mean = %v, want 50.5", s.Mean)
	}
	if s.P95 != 95 {
		t.Errorf("p95 = %v, want 95", s.P95)
	}
	if s.Max != 100 {
		t.Errorf("max = %v, want 100", s.Max)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	xs := []float64{3, 1, 2}
	Summarize(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestPercentileBoundsClamped(t *testing.T) {
	xs := []float64{2, 4, 6}
	if v := Percentile(xs, -0.5); v != 2 {
		t.Errorf("q<0 should clamp to min, got %v", v)
	}
	if v := Percentile(xs, 1.5); v != 6 {
		t.Errorf("q>1 should clamp to max, got %v", v)
	}
	if v := Percentile(nil, 0.5); v != 0 {
		t.Errorf("empty percentile should be 0, got %v", v)
	}
}

func TestPercentileSortedQuantileTable(t *testing.T) {
	sorted := []float64{10, 20, 30, 40, 50}
	cases := []struct {
		name string
		q    float64
		want float64
	}{
		{"min", 0, 10},
		{"median", 0.5, 30},
		{"max", 1, 50},
		{"below-range", -3, 10},
		{"above-range", 7, 50},
		{"nan-yields-median", math.NaN(), 30},
		{"neg-inf", math.Inf(-1), 10},
		{"pos-inf", math.Inf(1), 50},
	}
	for _, c := range cases {
		if got := PercentileSorted(sorted, c.q); got != c.want {
			t.Errorf("%s: PercentileSorted(q=%v) = %v, want %v", c.name, c.q, got, c.want)
		}
	}
	// NaN on an empty sample must stay the empty-sample zero, not panic.
	if got := PercentileSorted(nil, math.NaN()); got != 0 {
		t.Errorf("empty sample with NaN q = %v, want 0", got)
	}
}

func TestPercentileSingleElement(t *testing.T) {
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if v := Percentile([]float64{42}, q); v != 42 {
			t.Errorf("q=%v: got %v, want 42", q, v)
		}
	}
}
