package eoimage

import (
	"fmt"
	"math"
	"math/rand"
)

// SARConfig describes a synthetic synthetic-aperture-radar scene in the
// statistical regime of the xView3 maritime dataset: a large, quiet ocean
// background at the sensor noise floor, multiplicative speckle, and a few
// bright point targets (ships). Scenes like this compress spectacularly
// with dictionary coders — the paper's Table 4 reports Zip ratios in the
// thousands for SAR — because most samples repeat.
type SARConfig struct {
	Width, Height int
	Seed          int64
	// ShipCount is the number of bright point targets.
	ShipCount int
	// NoDataBorder adds a flat zero-valued border of this many pixels on
	// every side, mimicking the ungeocoded swath edges of real products.
	NoDataBorder int
	// SpeckleLooks controls speckle severity: multi-look averaging of L
	// looks reduces speckle variance by 1/L. 1 = raw single-look.
	SpeckleLooks int
	// QuantStep quantizes ocean amplitudes to multiples of this value
	// (default 1 = full radiometry). Real distribution products are
	// coarsely quantized in dB, which is what makes maritime SAR so
	// compressible; the Table 4 experiment uses a coarse step.
	QuantStep int
}

// Validate checks the config.
func (c SARConfig) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("eoimage: non-positive SAR dimensions %dx%d", c.Width, c.Height)
	}
	if c.NoDataBorder < 0 || 2*c.NoDataBorder >= c.Width || 2*c.NoDataBorder >= c.Height {
		return fmt.Errorf("eoimage: no-data border %d too large", c.NoDataBorder)
	}
	if c.ShipCount < 0 {
		return fmt.Errorf("eoimage: negative ship count %d", c.ShipCount)
	}
	if c.SpeckleLooks < 0 {
		return fmt.Errorf("eoimage: negative speckle looks %d", c.SpeckleLooks)
	}
	if c.QuantStep < 0 {
		return fmt.Errorf("eoimage: negative quantization step %d", c.QuantStep)
	}
	return nil
}

// SARScene is a generated single-band radar backscatter image.
type SARScene struct {
	Width, Height int
	// Amplitude is the row-major backscatter amplitude, quantized to
	// 16-bit like real SAR products.
	Amplitude []uint16
	// ShipMask marks target pixels.
	ShipMask []bool
}

// Bytes returns the raw little-endian sample stream the codecs compress.
func (s *SARScene) Bytes() []byte {
	out := make([]byte, 0, 2*len(s.Amplitude))
	for _, v := range s.Amplitude {
		out = append(out, byte(v), byte(v>>8))
	}
	return out
}

// GenerateSAR builds a synthetic SAR scene.
func GenerateSAR(cfg SARConfig) (*SARScene, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w, h := cfg.Width, cfg.Height
	s := &SARScene{
		Width: w, Height: h,
		Amplitude: make([]uint16, w*h),
		ShipMask:  make([]bool, w*h),
	}
	looks := cfg.SpeckleLooks
	if looks == 0 {
		looks = 4
	}
	quant := cfg.QuantStep
	if quant == 0 {
		quant = 1
	}

	// Quiet ocean background: low backscatter with multiplicative
	// gamma-distributed speckle, quantized coarsely enough that most
	// samples collide (the key statistic for dictionary coders).
	const floor = 40.0 // noise floor in quantizer units
	inner := cfg.NoDataBorder
	for y := inner; y < h-inner; y++ {
		for x := inner; x < w-inner; x++ {
			speckle := gammaLooks(rng, looks)
			v := floor * speckle
			if v > math.MaxUint16 {
				v = math.MaxUint16
			}
			q := (uint16(v) / uint16(quant)) * uint16(quant)
			s.Amplitude[y*w+x] = q
		}
	}

	// Ships: small clusters of saturated returns with sidelobe glints.
	for i := 0; i < cfg.ShipCount; i++ {
		cx := inner + rng.Intn(max(1, w-2*inner))
		cy := inner + rng.Intn(max(1, h-2*inner))
		span := 2 + rng.Intn(4)
		for dy := -span; dy <= span; dy++ {
			for dx := -span; dx <= span; dx++ {
				x, y := cx+dx, cy+dy
				if x < 0 || x >= w || y < 0 || y >= h {
					continue
				}
				d := math.Hypot(float64(dx), float64(dy))
				if d > float64(span) {
					continue
				}
				idx := y*w + x
				val := 60000.0 * math.Exp(-d/1.5)
				if uint16(val) > s.Amplitude[idx] {
					s.Amplitude[idx] = uint16(val)
					s.ShipMask[idx] = true
				}
			}
		}
	}
	return s, nil
}

// gammaLooks draws a unit-mean gamma variate with shape L (sum of L unit
// exponentials scaled by 1/L) — the standard multi-look speckle model.
func gammaLooks(rng *rand.Rand, looks int) float64 {
	sum := 0.0
	for i := 0; i < looks; i++ {
		sum += rng.ExpFloat64()
	}
	return sum / float64(looks)
}
