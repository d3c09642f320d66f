package discard

import (
	"math"
	"testing"

	"spacedc/internal/eoimage"
)

func scene(t *testing.T, cfg eoimage.Config) *eoimage.Scene {
	t.Helper()
	if cfg.Width == 0 {
		cfg.Width, cfg.Height = 128, 128
	}
	s, err := eoimage.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTable3Values(t *testing.T) {
	rows := Table3()
	if len(rows) != 6 {
		t.Fatalf("Table 3 has %d rows, want 6", len(rows))
	}
	wantRates := map[string]float64{
		"None": 0, "Night": 0.5, "Ocean": 0.7,
		"Uninhabited": 0.9, "Non-Built-Up": 0.98, "Cloudy": 0.67,
	}
	// The paper's published ECRs: 1, 2, 3.4, 10, 50, 3.
	wantECR := map[string]float64{
		"None": 1, "Night": 2, "Ocean": 3.4,
		"Uninhabited": 10, "Non-Built-Up": 50, "Cloudy": 3,
	}
	for _, c := range rows {
		if err := c.ValidateRate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		if c.Rate != wantRates[c.Name] {
			t.Errorf("%s rate = %v, want %v", c.Name, c.Rate, wantRates[c.Name])
		}
		if got := c.ECR(); math.Abs(got-wantECR[c.Name])/wantECR[c.Name] > 0.05 {
			t.Errorf("%s ECR = %v, want ≈%v", c.Name, got, wantECR[c.Name])
		}
	}
}

func TestECRInfinity(t *testing.T) {
	if !math.IsInf(Criterion{Rate: 1}.ECR(), 1) {
		t.Error("100% discard should have infinite ECR")
	}
}

func TestCombineIndependent(t *testing.T) {
	// Night (0.5) + Non-Built-Up (0.98): keep 0.5×0.02 = 0.01 → rate 0.99,
	// ECR 100 — the paper's "≤ 4 × 100 = 400" best case combined with
	// lossless compression's ≤4×.
	c := CombineIndependent(Night, NonBuiltUp)
	if math.Abs(c.Rate-0.99) > 1e-12 {
		t.Errorf("combined rate = %v, want 0.99", c.Rate)
	}
	if math.Abs(c.ECR()-100) > 1e-9 {
		t.Errorf("combined ECR = %v, want 100", c.ECR())
	}
	if c.Name != "Night+Non-Built-Up" {
		t.Errorf("combined name = %q", c.Name)
	}
	// Combining with None is a no-op.
	same := CombineIndependent(None, Ocean)
	if math.Abs(same.Rate-Ocean.Rate) > 1e-12 {
		t.Errorf("None+Ocean rate = %v", same.Rate)
	}
	// Empty combination keeps everything.
	if got := CombineIndependent(); got.Rate != 0 {
		t.Errorf("empty combination rate = %v", got.Rate)
	}
}

func TestBestCaseECRBound(t *testing.T) {
	// Paper §4: best-case combined compression (≤4×) and early discard
	// (≤100× via night + non-built-up) is ≤400 — still orders of
	// magnitude below the required ECRs for fine targets.
	combined := CombineIndependent(Night, NonBuiltUp).ECR() * 4
	if combined > 400.5 {
		t.Errorf("best-case ECR = %v, paper says ≤400", combined)
	}
	if combined < 399 {
		t.Errorf("best-case ECR = %v, want ≈400", combined)
	}
}

func TestNightClassifier(t *testing.T) {
	day := scene(t, eoimage.Config{Seed: 1, Kind: eoimage.Rural})
	night := scene(t, eoimage.Config{Seed: 1, Kind: eoimage.Rural, Night: true})
	nc := NightClassifier{}
	if nc.Discard(day) {
		t.Error("day scene discarded as night")
	}
	if !nc.Discard(night) {
		t.Error("night scene kept")
	}
}

func TestOceanClassifier(t *testing.T) {
	ocean := scene(t, eoimage.Config{Seed: 2, Kind: eoimage.Ocean})
	land := scene(t, eoimage.Config{Seed: 2, Kind: eoimage.Urban})
	oc := OceanClassifier{}
	if !oc.Discard(ocean) {
		t.Error("ocean scene kept")
	}
	if oc.Discard(land) {
		t.Error("urban scene discarded as ocean")
	}
}

func TestCloudClassifier(t *testing.T) {
	overcast := scene(t, eoimage.Config{Seed: 3, Kind: eoimage.Rural, CloudFraction: 0.9})
	clear := scene(t, eoimage.Config{Seed: 3, Kind: eoimage.Rural, CloudFraction: 0.1})
	cc := CloudClassifier{}
	if !cc.Discard(overcast) {
		t.Error("overcast scene kept")
	}
	if cc.Discard(clear) {
		t.Error("clear scene discarded as cloudy")
	}
}

func TestPipelineAnyVote(t *testing.T) {
	p := Pipeline{Classifiers: []Classifier{NightClassifier{}, OceanClassifier{}}}
	dayLand := scene(t, eoimage.Config{Seed: 5, Kind: eoimage.Urban})
	nightLand := scene(t, eoimage.Config{Seed: 5, Kind: eoimage.Urban, Night: true})
	dayOcean := scene(t, eoimage.Config{Seed: 5, Kind: eoimage.Ocean})
	if p.Discard(dayLand) {
		t.Error("day land discarded")
	}
	if !p.Discard(nightLand) || !p.Discard(dayOcean) {
		t.Error("pipeline should discard when any rule fires")
	}
}

func TestPipelineEvaluateRate(t *testing.T) {
	// A mixed batch: 2 ocean, 1 night, 2 day-land → 60% discard with the
	// night+ocean pipeline.
	frames := []*eoimage.Scene{
		scene(t, eoimage.Config{Seed: 10, Kind: eoimage.Ocean}),
		scene(t, eoimage.Config{Seed: 11, Kind: eoimage.Ocean}),
		scene(t, eoimage.Config{Seed: 12, Kind: eoimage.Urban, Night: true}),
		scene(t, eoimage.Config{Seed: 13, Kind: eoimage.Urban}),
		scene(t, eoimage.Config{Seed: 14, Kind: eoimage.Urban}),
	}
	p := Pipeline{Classifiers: []Classifier{NightClassifier{}, OceanClassifier{}}}
	st := p.Evaluate(frames)
	if st.Frames != 5 || st.Discarded != 3 {
		t.Fatalf("stats = %+v, want 3/5 discarded", st)
	}
	if math.Abs(st.Rate()-0.6) > 1e-12 {
		t.Errorf("rate = %v", st.Rate())
	}
}

func TestStatsDegenerate(t *testing.T) {
	if (Stats{}).Rate() != 0 {
		t.Error("empty stats rate should be 0")
	}
}

func TestValidateRate(t *testing.T) {
	if err := (Criterion{Rate: -0.1}).ValidateRate(); err == nil {
		t.Error("negative rate accepted")
	}
	if err := (Criterion{Rate: 1.1}).ValidateRate(); err == nil {
		t.Error("rate > 1 accepted")
	}
}
