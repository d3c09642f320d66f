package eoimage

import "testing"

func BenchmarkGenerateRGB(b *testing.B) {
	cfg := Config{Width: 512, Height: 512, Kind: Urban, CloudFraction: 0.3}
	b.SetBytes(int64(3 * cfg.Width * cfg.Height))
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGenerateSAR(b *testing.B) {
	cfg := SARConfig{Width: 512, Height: 512, ShipCount: 8, NoDataBorder: 64}
	b.SetBytes(int64(2 * cfg.Width * cfg.Height))
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i)
		if _, err := GenerateSAR(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
