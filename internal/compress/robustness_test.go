package compress

import (
	"bytes"
	"math/rand"
	"testing"

	"spacedc/internal/eoimage"
)

// TestDecompressorsNeverPanic feeds every codec truncated and bit-flipped
// versions of valid streams plus raw noise: each call must return
// (data, nil) only when the output is actually correct, or an error —
// never panic, never hang.
func TestDecompressorsNeverPanic(t *testing.T) {
	scene, err := eoimage.Generate(eoimage.Config{
		Width: 64, Height: 64, Seed: 3, Kind: eoimage.Rural})
	if err != nil {
		t.Fatal(err)
	}
	data := scene.Interleaved()
	rng := rand.New(rand.NewSource(9))

	for _, c := range Suite(64, 64, RGB8) {
		comp, err := c.Compress(data)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		variants := make([][]byte, 0, 40)
		// Truncations.
		for _, frac := range []float64{0, 0.1, 0.5, 0.9, 0.99} {
			variants = append(variants, comp[:int(float64(len(comp))*frac)])
		}
		// Bit flips.
		for i := 0; i < 20; i++ {
			mut := append([]byte{}, comp...)
			mut[rng.Intn(len(mut))] ^= byte(1 << rng.Intn(8))
			variants = append(variants, mut)
		}
		// Raw noise.
		for i := 0; i < 10; i++ {
			noise := make([]byte, rng.Intn(256))
			rng.Read(noise)
			variants = append(variants, noise)
		}
		for vi, v := range variants {
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s panicked on variant %d: %v", c.Name(), vi, r)
					}
				}()
				out, err := c.Decompress(v)
				if err == nil && bytes.Equal(v, comp) && !bytes.Equal(out, data) {
					t.Errorf("%s silently returned wrong data", c.Name())
				}
			}()
		}
	}
}

// TestCompressorsHandleArbitraryInput checks the stream codecs compress
// and round-trip arbitrary (non-image) bytes.
func TestCompressorsHandleArbitraryInput(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inputs := [][]byte{
		nil,
		{0},
		bytes.Repeat([]byte{0xAA}, 10000),
		make([]byte, 4096),
	}
	random := make([]byte, 8192)
	rng.Read(random)
	inputs = append(inputs, random)

	for _, c := range []Codec{RLE{}, LZW{}, Zip{}} {
		for i, in := range inputs {
			comp, err := c.Compress(in)
			if err != nil {
				t.Errorf("%s input %d: %v", c.Name(), i, err)
				continue
			}
			back, err := c.Decompress(comp)
			if err != nil {
				t.Errorf("%s input %d decompress: %v", c.Name(), i, err)
				continue
			}
			if !bytes.Equal(back, in) {
				t.Errorf("%s input %d: round trip mismatch", c.Name(), i)
			}
		}
	}
}
