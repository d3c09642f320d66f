package radiation

import (
	"math"
	"testing"
	"time"

	"spacedc/internal/orbit"
)

var epoch = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

func TestSAAContains(t *testing.T) {
	saa := DefaultSAA()
	deg := math.Pi / 180
	cases := []struct {
		name string
		g    orbit.Geodetic
		want bool
	}{
		{"center", orbit.Geodetic{LatRad: -26 * deg, LonRad: -45 * deg, AltKm: 500}, true},
		{"rio", orbit.Geodetic{LatRad: -23 * deg, LonRad: -43 * deg, AltKm: 500}, true},
		{"north atlantic", orbit.Geodetic{LatRad: 40 * deg, LonRad: -45 * deg, AltKm: 500}, false},
		{"pacific", orbit.Geodetic{LatRad: -26 * deg, LonRad: 170 * deg, AltKm: 500}, false},
		{"antipode wraps", orbit.Geodetic{LatRad: -26 * deg, LonRad: -44 * deg, AltKm: 500}, true},
		{"equator edge", orbit.Geodetic{LatRad: 0, LonRad: -45 * deg, AltKm: 500}, false},
	}
	for _, c := range cases {
		if got := saa.Contains(c.g); got != c.want {
			t.Errorf("%s: Contains = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestSAAGrowsWithAltitude(t *testing.T) {
	saa := DefaultSAA()
	deg := math.Pi / 180
	// A point just outside at 500 km falls inside at 1500 km.
	edge := orbit.Geodetic{LatRad: -26 * deg, LonRad: (-45 + 47) * deg, AltKm: 500}
	if saa.Contains(edge) {
		t.Fatal("point should start outside")
	}
	edge.AltKm = 1500
	if !saa.Contains(edge) {
		t.Error("anomaly should widen with altitude")
	}
}

func TestSAATimeFractionISSLike(t *testing.T) {
	// A 51.6°, 420 km orbit spends single-digit percent of its time in
	// the anomaly (ISS experience: ~5%).
	el := orbit.CircularLEO(420, 51.6*math.Pi/180, 0, 0, epoch)
	frac, err := DefaultSAA().TimeFraction(el, epoch, 24*time.Hour, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.01 || frac > 0.15 {
		t.Errorf("ISS-like SAA fraction = %v, want ≈0.05", frac)
	}
}

func TestSAATimeFractionEquatorial(t *testing.T) {
	// An equatorial orbit never dips to 26°S — the anomaly's core.
	el := orbit.CircularLEO(550, 0, 0, 0, epoch)
	frac, err := DefaultSAA().TimeFraction(el, epoch, 6*time.Hour, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if frac > 0.001 {
		t.Errorf("equatorial SAA fraction = %v, want ≈0", frac)
	}
}

func TestSAATimeFractionPolarVsMid(t *testing.T) {
	polar := orbit.CircularLEO(550, 97*math.Pi/180, 0, 0, epoch)
	fp, err := DefaultSAA().TimeFraction(polar, epoch, 24*time.Hour, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if fp <= 0 {
		t.Error("polar orbit must cross the anomaly")
	}
}

func TestTimeFractionValidation(t *testing.T) {
	el := orbit.CircularLEO(550, 1, 0, 0, epoch)
	if _, err := DefaultSAA().TimeFraction(el, epoch, 0, time.Second); err == nil {
		t.Error("zero span accepted")
	}
	if _, err := DefaultSAA().TimeFraction(el, epoch, time.Hour, 0); err == nil {
		t.Error("zero step accepted")
	}
}

func TestDoseProfileShape(t *testing.T) {
	// The paper's LEO anchor: ~1 krad/yr at 550 km.
	if got := DoseRateKradPerYear(550); math.Abs(got-1) > 0.01 {
		t.Errorf("550 km dose = %v krad/yr, want 1", got)
	}
	// The inner proton belt dwarfs LEO.
	if DoseRateKradPerYear(4000) < 100*DoseRateKradPerYear(550) {
		t.Error("inner belt should dwarf LEO dose")
	}
	// GEO sits well above LEO (outer belt) but below the belt peaks.
	geo := DoseRateKradPerYear(35786)
	if geo < 10*DoseRateKradPerYear(550) {
		t.Errorf("GEO dose %v should be ≫ LEO", geo)
	}
	if geo > DoseRateKradPerYear(5000) {
		t.Errorf("GEO dose %v should be below the inner-belt peak", geo)
	}
	// Extremes clamp, interpolation stays positive and finite.
	for _, alt := range []float64{100, 550, 1500, 5000, 20000, 35786, 100000} {
		d := DoseRateKradPerYear(alt)
		if d <= 0 || math.IsInf(d, 0) || math.IsNaN(d) {
			t.Errorf("dose at %v km = %v", alt, d)
		}
	}
}

func TestPartSurvival(t *testing.T) {
	survivalYears := func(p Part, altKm float64) float64 {
		return p.ToleranceKrad / DoseRateKradPerYear(altKm)
	}
	// §9's point: a 300 krad part in 1 krad/yr LEO is overdesign.
	if y := survivalYears(HardenedSRAM, 550); y < 100 {
		t.Errorf("300 krad part survives %v years in LEO — should be centuries", y)
	}
	// A COTS GPU in LEO outlives commodity hardware replacement cycles.
	if y := survivalYears(COTSGPU, 550); y < 10 {
		t.Errorf("COTS GPU survives %v years in LEO, want > 10", y)
	}
	// The same part in the inner belt dies within a year.
	if y := survivalYears(COTSGPU, 4000); y > 0.25 {
		t.Errorf("COTS GPU survives %v years in the inner belt, want weeks", y)
	}
}

func TestMitigationCapacity(t *testing.T) {
	if got := COTSWithSAAPause.CapacityFactor(0.05); math.Abs(got-0.95) > 1e-12 {
		t.Errorf("SAA pause capacity = %v, want 0.95", got)
	}
	if got := COTSWithSoftwareHardening.CapacityFactor(0); math.Abs(got-1/1.2) > 1e-12 {
		t.Errorf("software hardening capacity = %v, want 1/1.2", got)
	}
	if Redundancy.CapacityFactor(0) != 0.5 {
		t.Error("dual redundancy should halve capacity")
	}
	if RadHardParts.CapacityFactor(0) >= Redundancy.CapacityFactor(0) {
		t.Error("rad-hard parts should cost the most capacity")
	}
}

func TestRecommend(t *testing.T) {
	// 5-year LEO mission: 5 krad — COTS with SAA pauses suffices.
	if got := Recommend(550, 5); got != COTSWithSAAPause {
		t.Errorf("LEO 5 yr → %v, want SAA pause", got)
	}
	// 15-year GEO mission: ~900 krad — rad-hard territory.
	if got := Recommend(35786, 15); got != RadHardParts {
		t.Errorf("GEO 15 yr → %v, want rad-hard", got)
	}
	// Recommendation cost ordering is monotone in mission length.
	prev := Mitigation(-1)
	for _, years := range []float64{1, 5, 12, 20, 50} {
		m := Recommend(550, years)
		if m < prev {
			t.Errorf("recommendation regressed at %v years: %v after %v", years, m, prev)
		}
		prev = m
	}
}

func TestMitigationStrings(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range []Mitigation{COTSWithSAAPause, COTSWithSoftwareHardening, Redundancy, RadHardParts} {
		if m.String() == "" || m.String() == "unknown" {
			t.Errorf("mitigation %d has bad name", m)
		}
		if seen[m.String()] {
			t.Errorf("duplicate mitigation name %q", m.String())
		}
		seen[m.String()] = true
	}
	if Mitigation(99).String() != "unknown" {
		t.Error("unknown mitigation should say unknown")
	}
}

func TestSAAGrowthEdgeCases(t *testing.T) {
	deg := math.Pi / 180
	base := DefaultSAA()
	// A point near the reference-altitude footprint edge, just inside.
	inside := orbit.Geodetic{LatRad: -26 * deg, LonRad: (-45 + 44) * deg, AltKm: base.RefAltKm}
	outside := orbit.Geodetic{LatRad: -26 * deg, LonRad: (-45 + 47) * deg, AltKm: base.RefAltKm}

	t.Run("zero growth freezes the footprint", func(t *testing.T) {
		saa := base
		saa.GrowthPerKm = 0
		for _, alt := range []float64{200, base.RefAltKm, 1500, 36000} {
			in, out := inside, outside
			in.AltKm, out.AltKm = alt, alt
			if !saa.Contains(in) {
				t.Errorf("alt %v km: interior point left the frozen footprint", alt)
			}
			if saa.Contains(out) {
				t.Errorf("alt %v km: exterior point entered the frozen footprint", alt)
			}
		}
	})

	t.Run("high growth clamps below reference", func(t *testing.T) {
		saa := base
		saa.GrowthPerKm = 0.01 // 1%/km: scale would go negative 100 km below reference
		// Far below the reference the scale clamps at 0.5 rather than
		// inverting: the half-size footprint still contains its center.
		center := orbit.Geodetic{LatRad: -26 * deg, LonRad: -45 * deg, AltKm: 0}
		if !saa.Contains(center) {
			t.Error("clamped footprint must still contain its center")
		}
		// At half scale the reference-edge interior point is outside.
		low := inside
		low.AltKm = 0
		if saa.Contains(low) {
			t.Error("near-edge point should fall outside the clamped half-size footprint")
		}
		// Above the reference the footprint balloons: a point well outside
		// at 500 km is inside by 1000 km at 1%/km growth.
		high := outside
		high.AltKm = 1000
		if !saa.Contains(high) {
			t.Error("fast growth should swallow the nearby exterior point by 1000 km")
		}
	})
}

func TestLonDiffWraps(t *testing.T) {
	if d := lonDiffDeg(179, -179); math.Abs(d+2) > 1e-12 {
		t.Errorf("lon diff across dateline = %v, want -2", d)
	}
	if d := lonDiffDeg(-179, 179); math.Abs(d-2) > 1e-12 {
		t.Errorf("lon diff across dateline = %v, want 2", d)
	}
}
