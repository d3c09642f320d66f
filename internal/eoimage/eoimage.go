// Package eoimage generates synthetic Earth-observation imagery with
// realistic statistics: spatially correlated land and ocean textures,
// cloud layers, night scenes with sparse lights, built-up areas with
// man-made structure, and speckled SAR scenes with large quiet backgrounds.
//
// It substitutes for the paper's CrowdAI Mapping Challenge (RGB) and xView3
// (SAR) datasets: compression ratio is a function of image statistics, so a
// generator tuned to the same statistical regime reproduces the paper's
// Table 4 codec ordering, and the discard package's classifiers exercise
// the same decision logic early-discard would run on real frames.
package eoimage

import (
	"fmt"
	"math"
	"math/rand"
)

// SceneKind selects the dominant land cover of a generated scene.
type SceneKind int

// Scene kinds.
const (
	Ocean SceneKind = iota
	Rural
	Urban
)

// String names the scene kind.
func (k SceneKind) String() string {
	switch k {
	case Ocean:
		return "ocean"
	case Rural:
		return "rural"
	case Urban:
		return "urban"
	default:
		return "unknown"
	}
}

// Config describes a synthetic RGB scene.
type Config struct {
	Width, Height int
	Seed          int64
	Kind          SceneKind
	// CloudFraction in [0, 1] covers that share of the scene with cloud.
	CloudFraction float64
	// Night renders the scene unlit except for sparse artificial lights
	// (only meaningful for Rural/Urban).
	Night bool
}

// Validate checks the config.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("eoimage: non-positive dimensions %dx%d", c.Width, c.Height)
	}
	if c.CloudFraction < 0 || c.CloudFraction > 1 {
		return fmt.Errorf("eoimage: cloud fraction %v outside [0,1]", c.CloudFraction)
	}
	if c.Kind != Ocean && c.Kind != Rural && c.Kind != Urban {
		return fmt.Errorf("eoimage: unknown scene kind %d", c.Kind)
	}
	return nil
}

// Scene is a generated RGB frame with per-pixel ground-truth masks.
type Scene struct {
	Width, Height int
	R, G, B       []uint8 // planar bands, row-major
	Cloud         []bool  // true where cloud covers the pixel
	Water         []bool  // true where the underlying surface is water
	BuiltUp       []bool  // true where man-made structure exists
	Night         bool
}

// Pixels returns Width × Height.
func (s *Scene) Pixels() int { return s.Width * s.Height }

// Interleaved returns the pixel data as RGBRGB… bytes, the layout the
// non-image codecs compress.
func (s *Scene) Interleaved() []byte {
	out := make([]byte, 0, 3*s.Pixels())
	for i := 0; i < s.Pixels(); i++ {
		out = append(out, s.R[i], s.G[i], s.B[i])
	}
	return out
}

// Generate builds a synthetic RGB scene.
func Generate(cfg Config) (*Scene, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w, h := cfg.Width, cfg.Height
	n := w * h

	s := &Scene{
		Width: w, Height: h,
		R: make([]uint8, n), G: make([]uint8, n), B: make([]uint8, n),
		Cloud: make([]bool, n), Water: make([]bool, n), BuiltUp: make([]bool, n),
		Night: cfg.Night,
	}

	texture := smoothField(rng, w, h, 3, 6) // base land/sea texture
	detail := smoothField(rng, w, h, 1, 2)  // high-frequency detail

	switch cfg.Kind {
	case Ocean:
		for i := 0; i < n; i++ {
			s.Water[i] = true
			// Deep blue with gentle swell structure.
			v := 0.15 + 0.08*texture[i] + 0.02*detail[i]
			s.R[i] = quant(0.15 * v * 4)
			s.G[i] = quant(0.35 * (v + 0.1) * 2)
			s.B[i] = quant(v + 0.35)
		}
	case Rural:
		for i := 0; i < n; i++ {
			// Vegetation and soil mix driven by the texture field.
			veg := texture[i]
			soil := 1 - veg
			s.R[i] = quant(0.25*veg + 0.45*soil + 0.12*detail[i])
			s.G[i] = quant(0.45*veg + 0.35*soil + 0.12*detail[i])
			s.B[i] = quant(0.15*veg + 0.25*soil + 0.08*detail[i])
			if texture[i] < 0.18 { // occasional lakes and rivers
				s.Water[i] = true
				s.R[i], s.G[i], s.B[i] = quant(0.1), quant(0.2), quant(0.45)
			}
		}
	case Urban:
		for i := 0; i < n; i++ {
			// Concrete gray base.
			base := 0.45 + 0.2*texture[i] + 0.1*detail[i]
			s.R[i] = quant(base)
			s.G[i] = quant(base * 0.98)
			s.B[i] = quant(base * 0.95)
		}
		addBuildings(rng, s)
		addRoads(s)
	}

	if cfg.Night {
		applyNight(rng, s)
	}
	if cfg.CloudFraction > 0 {
		applyClouds(rng, s, cfg.CloudFraction)
	}
	return s, nil
}

// quant clamps a [0,1] intensity to a byte.
func quant(v float64) uint8 {
	if v <= 0 {
		return 0
	}
	if v >= 1 {
		return 255
	}
	return uint8(v * 255)
}

// smoothField returns a spatially correlated random field in [0,1] built by
// box-blurring white noise `passes` times with the given radius.
func smoothField(rng *rand.Rand, w, h, passes, radius int) []float64 {
	f := make([]float64, w*h)
	for i := range f {
		f[i] = rng.Float64()
	}
	tmp := make([]float64, w*h)
	for p := 0; p < passes; p++ {
		boxBlurH(f, tmp, w, h, radius)
		boxBlurV(tmp, f, w, h, radius)
	}
	// Renormalize to [0,1]: blurring compresses the range.
	min, max := f[0], f[0]
	for _, v := range f {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	span := max - min
	if span == 0 {
		span = 1
	}
	for i := range f {
		f[i] = (f[i] - min) / span
	}
	return f
}

// boxBlurH runs a horizontal box blur from src into dst.
func boxBlurH(src, dst []float64, w, h, radius int) {
	for y := 0; y < h; y++ {
		row := src[y*w : (y+1)*w]
		out := dst[y*w : (y+1)*w]
		var sum float64
		count := 0
		for x := -radius; x <= radius; x++ {
			if x >= 0 && x < w {
				sum += row[x]
				count++
			}
		}
		for x := 0; x < w; x++ {
			out[x] = sum / float64(count)
			if left := x - radius; left >= 0 {
				sum -= row[left]
				count--
			}
			if right := x + radius + 1; right < w {
				sum += row[right]
				count++
			}
		}
	}
}

// boxBlurV runs a vertical box blur from src into dst.
func boxBlurV(src, dst []float64, w, h, radius int) {
	for x := 0; x < w; x++ {
		var sum float64
		count := 0
		for y := -radius; y <= radius; y++ {
			if y >= 0 && y < h {
				sum += src[y*w+x]
				count++
			}
		}
		for y := 0; y < h; y++ {
			dst[y*w+x] = sum / float64(count)
			if top := y - radius; top >= 0 {
				sum -= src[top*w+x]
				count--
			}
			if bottom := y + radius + 1; bottom < h {
				sum += src[bottom*w+x]
				count++
			}
		}
	}
}

// addBuildings stamps axis-aligned rectangles with distinct rooftop tones
// and marks them built-up.
func addBuildings(rng *rand.Rand, s *Scene) {
	w, h := s.Width, s.Height
	count := w * h / 900 // building density
	for b := 0; b < count; b++ {
		bw := 4 + rng.Intn(12)
		bh := 4 + rng.Intn(12)
		x0 := rng.Intn(max(1, w-bw))
		y0 := rng.Intn(max(1, h-bh))
		tone := 0.3 + 0.6*rng.Float64()
		for y := y0; y < y0+bh && y < h; y++ {
			for x := x0; x < x0+bw && x < w; x++ {
				i := y*w + x
				s.R[i] = quant(tone)
				s.G[i] = quant(tone * 0.97)
				s.B[i] = quant(tone * 0.93)
				s.BuiltUp[i] = true
			}
		}
	}
}

// addRoads draws a dark street grid and marks it built-up.
func addRoads(s *Scene) {
	w, h := s.Width, s.Height
	const pitch = 32
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x%pitch < 2 || y%pitch < 2 {
				i := y*w + x
				s.R[i], s.G[i], s.B[i] = 40, 40, 42
				s.BuiltUp[i] = true
			}
		}
	}
}

// applyNight darkens the scene, leaving sparse artificial lights over
// built-up pixels.
func applyNight(rng *rand.Rand, s *Scene) {
	for i := 0; i < s.Pixels(); i++ {
		s.R[i] = s.R[i] / 12
		s.G[i] = s.G[i] / 12
		s.B[i] = s.B[i] / 14
		if s.BuiltUp[i] && rng.Float64() < 0.08 {
			// Sodium-vapor glow.
			s.R[i], s.G[i], s.B[i] = 250, 220, 140
		}
	}
}

// applyClouds overlays bright cloud where a smooth field exceeds the
// threshold that yields the requested coverage.
func applyClouds(rng *rand.Rand, s *Scene, fraction float64) {
	field := smoothField(rng, s.Width, s.Height, 3, 10)
	threshold := quantileThreshold(field, 1-fraction)
	for i, v := range field {
		if v >= threshold {
			// Cloud brightness varies with field height above threshold.
			bright := 0.75 + 0.25*math.Min(1, (v-threshold)*8)
			s.Cloud[i] = true
			s.R[i] = blend(s.R[i], bright)
			s.G[i] = blend(s.G[i], bright)
			s.B[i] = blend(s.B[i], bright)
		}
	}
}

// blend mixes a pixel toward white cloud of the given brightness.
func blend(p uint8, bright float64) uint8 {
	return quant(0.15*float64(p)/255 + 0.85*bright)
}

// quantileThreshold returns the value below which fraction q of the samples
// fall (approximately, via histogram).
func quantileThreshold(f []float64, q float64) float64 {
	const bins = 1024
	var hist [bins]int
	for _, v := range f {
		b := int(v * (bins - 1))
		hist[b]++
	}
	target := int(q * float64(len(f)))
	cum := 0
	for b := 0; b < bins; b++ {
		cum += hist[b]
		if cum >= target {
			return float64(b) / (bins - 1)
		}
	}
	return 1
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
