package workload

import (
	"math"
	"testing"
)

// baseSpec is a fast-running spec: an hour of demand at 50 req/s with a
// strong diurnal swing compressed into a 1-hour "day".
func baseSpec() Spec {
	return Spec{
		BaseRatePerSec:   50,
		DiurnalAmp:       0.5,
		DiurnalPeriodSec: 3600,
		DurationSec:      3600,
		Seed:             42,
	}
}

func collect(t *testing.T, spec Spec) []Request {
	t.Helper()
	g, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	for {
		r, ok := g.Next()
		if !ok {
			return reqs
		}
		reqs = append(reqs, r)
	}
}

func TestGeneratorValidation(t *testing.T) {
	cases := map[string]func(*Spec){
		"zero rate":        func(s *Spec) { s.BaseRatePerSec = 0 },
		"amp ≥ 1":          func(s *Spec) { s.DiurnalAmp = 1 },
		"negative amp":     func(s *Spec) { s.DiurnalAmp = -0.1 },
		"zero duration":    func(s *Spec) { s.DurationSec = 0 },
		"burst no peak":    func(s *Spec) { s.BurstOnsets = []float64{10}; s.BurstPeakPerSec = 0 },
		"onset past end":   func(s *Spec) { s.BurstOnsets = []float64{1e6}; s.BurstPeakPerSec = 10 },
		"negative onset":   func(s *Spec) { s.BurstOnsets = []float64{-1}; s.BurstPeakPerSec = 10 },
		"shares not unity": func(s *Spec) { s.Classes = []Class{{Name: "a", Share: 0.5, DeadlineSec: 1, Bits: 1, Frames: 1}} },
		"zero deadline": func(s *Spec) {
			s.Classes = []Class{{Name: "a", Share: 1, DeadlineSec: 0, Bits: 1, Frames: 1}}
		},
		"zero frames": func(s *Spec) {
			s.Classes = []Class{{Name: "a", Share: 1, DeadlineSec: 1, Bits: 1, Frames: 0}}
		},
	}
	for name, mutate := range cases {
		s := baseSpec()
		mutate(&s)
		if _, err := New(s); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := New(baseSpec()); err != nil {
		t.Errorf("base spec rejected: %v", err)
	}
}

// TestGeneratorDrawCap checks New refuses a stream whose expected
// candidate draws exceed MaxDraws, by rate and by duration, before drawing
// anything; the serve daemon's {"workload":{"load":1e6}} is the first kind.
func TestGeneratorDrawCap(t *testing.T) {
	// baseSpec's envelope is 75 req/s (50 × 1.5).
	atCap := baseSpec()
	atCap.DurationSec = MaxDraws / 75
	if _, err := New(atCap); err != nil {
		t.Errorf("spec at the cap rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Spec){
		"rate":     func(s *Spec) { s.BaseRatePerSec = 1e8 },
		"duration": func(s *Spec) { s.DurationSec = 1e12 },
		"burst":    func(s *Spec) { s.BurstOnsets = []float64{0}; s.BurstPeakPerSec = MaxDraws },
	} {
		s := baseSpec()
		mutate(&s)
		if _, err := New(s); err == nil {
			t.Errorf("%s over the draw cap accepted", name)
		}
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	s := baseSpec()
	s.BurstOnsets = []float64{900, 1800, 2700}
	s.BurstPeakPerSec = 100
	a := collect(t, s)
	b := collect(t, s)
	if len(a) != len(b) {
		t.Fatalf("run lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	s.Seed = 43
	c := collect(t, s)
	if len(c) == len(a) {
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical streams")
		}
	}
}

func TestGeneratorOrderedAndBounded(t *testing.T) {
	reqs := collect(t, baseSpec())
	last := 0.0
	for i, r := range reqs {
		if r.TSec < last {
			t.Fatalf("request %d out of order: %v after %v", i, r.TSec, last)
		}
		if r.TSec >= baseSpec().DurationSec {
			t.Fatalf("request %d beyond duration: %v", i, r.TSec)
		}
		if r.Class < 0 || r.Class >= len(DefaultClasses()) {
			t.Fatalf("request %d class %d out of range", i, r.Class)
		}
		last = r.TSec
	}
	// Mean count tracks ∫rate dt = base·duration (sin integrates to zero
	// over a full period): 180k expected, Poisson σ ≈ 425.
	want := baseSpec().BaseRatePerSec * baseSpec().DurationSec
	if got := float64(len(reqs)); math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Errorf("generated %v requests, want ≈ %v", got, want)
	}
}

func TestGeneratorDiurnalShape(t *testing.T) {
	s := baseSpec()
	reqs := collect(t, s)
	// Peak quarter-period around t=900 (sin=+1) vs trough around t=2700
	// (sin=-1): the count ratio must track (1+amp)/(1-amp) = 3.
	var peak, trough int
	for _, r := range reqs {
		switch {
		case r.TSec >= 450 && r.TSec < 1350:
			peak++
		case r.TSec >= 2250 && r.TSec < 3150:
			trough++
		}
	}
	ratio := float64(peak) / float64(trough)
	// Quarter-window averaging softens the extremes: E[ratio] ≈ 2.3.
	if ratio < 1.8 || ratio > 3.0 {
		t.Errorf("peak/trough ratio %v, want ≈ 2.3 (diurnal modulation missing?)", ratio)
	}
}

func TestGeneratorBurstSurge(t *testing.T) {
	s := baseSpec()
	s.DiurnalAmp = 0
	s.BurstOnsets = []float64{1800}
	s.BurstPeakPerSec = 200
	s.BurstDecaySec = 120
	g, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	// rateAt advances streaming state, so probe it on a second generator.
	probe, err := New(s)
	if err != nil {
		t.Fatal(err)
	}
	if r := probe.rateAt(1799); math.Abs(r-50) > 1e-9 {
		t.Errorf("pre-burst rate %v, want 50", r)
	}
	if r := probe.rateAt(1800); math.Abs(r-250) > 1e-9 {
		t.Errorf("onset rate %v, want 250", r)
	}
	if r := probe.rateAt(1800 + 120); math.Abs(r-(50+200/math.E)) > 1e-9 {
		t.Errorf("one-τ rate %v, want %v", r, 50+200/math.E)
	}
	if g.rmax < 250 {
		t.Errorf("envelope %v below true peak 250", g.rmax)
	}
	// The stream must realize the surge: arrivals in the burst's first τ
	// vs the same-width window before it.
	var before, during int
	for {
		r, ok := g.Next()
		if !ok {
			break
		}
		switch {
		case r.TSec >= 1680 && r.TSec < 1800:
			before++
		case r.TSec >= 1800 && r.TSec < 1920:
			during++
		}
	}
	if during < 2*before {
		t.Errorf("burst window saw %d arrivals vs %d before — surge not realized", during, before)
	}
}

func TestGeneratorClassMix(t *testing.T) {
	reqs := collect(t, baseSpec())
	counts := make([]int, len(DefaultClasses()))
	for _, r := range reqs {
		counts[r.Class]++
	}
	for i, c := range DefaultClasses() {
		got := float64(counts[i]) / float64(len(reqs))
		if math.Abs(got-c.Share) > 0.02 {
			t.Errorf("class %s share %v, want %v", c.Name, got, c.Share)
		}
	}
}

func TestSpecMeans(t *testing.T) {
	var s Spec
	wantBits := 0.15*20e6 + 0.35*50e6 + 0.50*100e6
	if got := s.MeanBits(); math.Abs(got-wantBits) > 1 {
		t.Errorf("MeanBits = %v, want %v", got, wantBits)
	}
	wantFrames := 0.15*1 + 0.35*2 + 0.50*4
	if got := s.MeanFrames(); math.Abs(got-wantFrames) > 1e-9 {
		t.Errorf("MeanFrames = %v, want %v", got, wantFrames)
	}
}

// TestGeneratorAllocsFlat is the workload twin of netsim's
// TestNetsimRunAllocsFlat: 10× the base rate (10× the requests) must not
// allocate meaningfully more — the stream is O(bursts) state, never
// O(requests).
func TestGeneratorAllocsFlat(t *testing.T) {
	drain := func(rate float64) func() {
		s := baseSpec()
		s.DurationSec = 600
		s.BaseRatePerSec = rate
		s.BurstOnsets = []float64{100, 300}
		s.BurstPeakPerSec = rate
		s.BurstDecaySec = 60
		return func() {
			g, err := New(s)
			if err != nil {
				t.Fatal(err)
			}
			n := 0
			for {
				if _, ok := g.Next(); !ok {
					break
				}
				n++
			}
			if n == 0 {
				t.Fatal("no requests generated")
			}
		}
	}
	low := testing.AllocsPerRun(3, drain(50))
	high := testing.AllocsPerRun(3, drain(500))
	if high > low*1.5+16 {
		t.Errorf("10× rate cost %v allocs vs %v: generator is not memory-flat", high, low)
	}
}

func BenchmarkGeneratorNext(b *testing.B) {
	s := baseSpec()
	s.BurstOnsets = []float64{600, 1200, 1800, 2400, 3000}
	s.BurstPeakPerSec = 100
	g, err := New(s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			// The hour is spent (about 200k requests): start it again.
			if g, err = New(s); err != nil {
				b.Fatal(err)
			}
		}
	}
}
