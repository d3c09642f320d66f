package eoimage

import (
	"math"
	"testing"
)

// fraction returns the share of true entries in a per-pixel mask.
func fraction(mask []bool) float64 {
	n := 0
	for _, v := range mask {
		if v {
			n++
		}
	}
	return float64(n) / float64(len(mask))
}

func mustScene(t *testing.T, cfg Config) *Scene {
	t.Helper()
	s, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate(%+v): %v", cfg, err)
	}
	return s
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := Config{Width: 64, Height: 64, Seed: 7, Kind: Urban, CloudFraction: 0.3}
	a := mustScene(t, cfg)
	b := mustScene(t, cfg)
	for i := range a.R {
		if a.R[i] != b.R[i] || a.G[i] != b.G[i] || a.B[i] != b.B[i] {
			t.Fatalf("same seed produced different pixels at %d", i)
		}
	}
	c := mustScene(t, Config{Width: 64, Height: 64, Seed: 8, Kind: Urban, CloudFraction: 0.3})
	same := true
	for i := range a.R {
		if a.R[i] != c.R[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical imagery")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, Height: 10, Kind: Ocean},
		{Width: 10, Height: -1, Kind: Ocean},
		{Width: 10, Height: 10, Kind: Ocean, CloudFraction: 1.5},
		{Width: 10, Height: 10, Kind: SceneKind(9)},
	}
	for _, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("bad config accepted: %+v", cfg)
		}
	}
}

func TestOceanSceneIsBlueAndWet(t *testing.T) {
	s := mustScene(t, Config{Width: 128, Height: 128, Seed: 1, Kind: Ocean})
	if got := fraction(s.Water); got != 1 {
		t.Errorf("ocean water fraction = %v, want 1", got)
	}
	var rSum, bSum int
	for i := range s.R {
		rSum += int(s.R[i])
		bSum += int(s.B[i])
	}
	if bSum <= rSum {
		t.Error("ocean should be bluer than red")
	}
}

func TestUrbanSceneHasStructure(t *testing.T) {
	s := mustScene(t, Config{Width: 256, Height: 256, Seed: 2, Kind: Urban})
	bu := fraction(s.BuiltUp)
	if bu < 0.1 || bu > 0.95 {
		t.Errorf("urban built-up fraction = %v, want substantial", bu)
	}
	r := mustScene(t, Config{Width: 256, Height: 256, Seed: 2, Kind: Rural})
	if fraction(r.BuiltUp) >= bu {
		t.Error("rural should have less built-up area than urban")
	}
}

func TestCloudFractionControl(t *testing.T) {
	for _, want := range []float64{0, 0.3, 0.67, 1} {
		s := mustScene(t, Config{Width: 200, Height: 200, Seed: 3, Kind: Rural, CloudFraction: want})
		got := fraction(s.Cloud)
		if math.Abs(got-want) > 0.08 {
			t.Errorf("requested %v cloud, got %v", want, got)
		}
	}
}

func TestCloudsAreBright(t *testing.T) {
	s := mustScene(t, Config{Width: 128, Height: 128, Seed: 4, Kind: Ocean, CloudFraction: 0.5})
	var cloudLum, clearLum float64
	var nc, nl int
	for i := range s.R {
		lum := float64(s.R[i]) + float64(s.G[i]) + float64(s.B[i])
		if s.Cloud[i] {
			cloudLum += lum
			nc++
		} else {
			clearLum += lum
			nl++
		}
	}
	if nc == 0 || nl == 0 {
		t.Fatal("expected both cloudy and clear pixels")
	}
	if cloudLum/float64(nc) <= clearLum/float64(nl) {
		t.Error("clouds should be brighter than the surface")
	}
}

func TestNightSceneIsDark(t *testing.T) {
	day := mustScene(t, Config{Width: 128, Height: 128, Seed: 5, Kind: Urban})
	night := mustScene(t, Config{Width: 128, Height: 128, Seed: 5, Kind: Urban, Night: true})
	lum := func(s *Scene) float64 {
		total := 0.0
		for i := range s.R {
			total += float64(s.R[i]) + float64(s.G[i]) + float64(s.B[i])
		}
		return total / float64(s.Pixels())
	}
	if lum(night) > 0.4*lum(day) {
		t.Errorf("night scene not dark: %v vs day %v", lum(night), lum(day))
	}
	if !night.Night {
		t.Error("night flag not set")
	}
	// But there must be some lights.
	bright := 0
	for i := range night.R {
		if night.R[i] > 200 {
			bright++
		}
	}
	if bright == 0 {
		t.Error("urban night scene should have artificial lights")
	}
}

func TestImageRendering(t *testing.T) {
	s := mustScene(t, Config{Width: 32, Height: 16, Seed: 6, Kind: Rural})
	img := s.Interleaved()
	if got := len(img); got != 3*32*16 {
		t.Fatalf("interleaved length %d", got)
	}
	i := 5*32 + 5
	if img[3*i] != s.R[i] || img[3*i+1] != s.G[i] || img[3*i+2] != s.B[i] {
		t.Error("rendered pixel mismatch")
	}
}

func TestSmoothFieldIsCorrelated(t *testing.T) {
	// Spatial correlation: neighboring pixels of the smooth field must be
	// far more similar than random pairs.
	s := mustScene(t, Config{Width: 256, Height: 256, Seed: 7, Kind: Rural})
	var neighborDiff, randomDiff float64
	n := 0
	for y := 0; y < 256; y++ {
		for x := 0; x+1 < 256; x++ {
			i := y*256 + x
			neighborDiff += math.Abs(float64(s.G[i]) - float64(s.G[i+1]))
			j := ((y*7919 + x*104729) % (256 * 256))
			randomDiff += math.Abs(float64(s.G[i]) - float64(s.G[j]))
			n++
		}
	}
	if neighborDiff/float64(n) > 0.6*randomDiff/float64(n) {
		t.Errorf("scene lacks spatial correlation: neighbor %v vs random %v",
			neighborDiff/float64(n), randomDiff/float64(n))
	}
}

func TestGenerateSARBasics(t *testing.T) {
	s, err := GenerateSAR(SARConfig{Width: 256, Height: 256, Seed: 1, ShipCount: 5, NoDataBorder: 16})
	if err != nil {
		t.Fatal(err)
	}
	// Border must be exactly zero.
	for x := 0; x < 256; x++ {
		if s.Amplitude[x] != 0 || s.Amplitude[255*256+x] != 0 {
			t.Fatal("no-data border not zero")
		}
	}
	// Ships are saturated relative to ocean.
	var shipMax, oceanMax uint16
	for i, v := range s.Amplitude {
		if s.ShipMask[i] {
			if v > shipMax {
				shipMax = v
			}
		} else if v > oceanMax {
			oceanMax = v
		}
	}
	if shipMax < 30000 {
		t.Errorf("ship peak %d too dim", shipMax)
	}
	if oceanMax >= shipMax {
		t.Errorf("ocean (%d) should be darker than ships (%d)", oceanMax, shipMax)
	}
	if got := len(s.Bytes()); got != 2*256*256 {
		t.Errorf("byte stream length %d", got)
	}
}

func TestGenerateSARValidation(t *testing.T) {
	bad := []SARConfig{
		{Width: 0, Height: 10},
		{Width: 10, Height: 10, NoDataBorder: 5},
		{Width: 10, Height: 10, ShipCount: -1},
		{Width: 10, Height: 10, SpeckleLooks: -1},
	}
	for _, cfg := range bad {
		if _, err := GenerateSAR(cfg); err == nil {
			t.Errorf("bad SAR config accepted: %+v", cfg)
		}
	}
}

func TestSARSpeckleLooksReduceVariance(t *testing.T) {
	variance := func(looks int) float64 {
		s, err := GenerateSAR(SARConfig{Width: 128, Height: 128, Seed: 2, SpeckleLooks: looks})
		if err != nil {
			t.Fatal(err)
		}
		var sum, sumSq float64
		n := 0
		for _, v := range s.Amplitude {
			sum += float64(v)
			sumSq += float64(v) * float64(v)
			n++
		}
		mean := sum / float64(n)
		return sumSq/float64(n) - mean*mean
	}
	if v1, v16 := variance(1), variance(16); v16 >= v1 {
		t.Errorf("16-look speckle variance %v should be below single-look %v", v16, v1)
	}
}

func TestSceneKindString(t *testing.T) {
	if Ocean.String() != "ocean" || Rural.String() != "rural" || Urban.String() != "urban" {
		t.Error("scene kind names wrong")
	}
	if SceneKind(42).String() != "unknown" {
		t.Error("unknown kind")
	}
}
