package coverage

import (
	"math"
	"testing"
	"time"
)

// wideImager is a 550 km satellite with a 30° half-angle sensor
// (≈660 km swath).
var wideImager = Imager{AltKm: 550, HalfAngleRad: 30 * math.Pi / 180}

func TestImagerValidate(t *testing.T) {
	if err := wideImager.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Imager{
		{AltKm: 0, HalfAngleRad: 0.1},
		{AltKm: 550, HalfAngleRad: 0},
		{AltKm: 550, HalfAngleRad: math.Pi},
	}
	for _, im := range bad {
		if im.Validate() == nil {
			t.Errorf("bad imager accepted: %+v", im)
		}
	}
}

func TestSwath(t *testing.T) {
	s := wideImager.SwathKm()
	if s < 500 || s > 800 {
		t.Errorf("30° swath at 550 km = %v km, want ≈660", s)
	}
	narrow := Imager{AltKm: 550, HalfAngleRad: 2 * math.Pi / 180}
	if narrow.SwathKm() >= s {
		t.Error("narrow sensor should have smaller swath")
	}
}

func TestMeanRevisitScalesInverselyWithFleet(t *testing.T) {
	one, err := MeanRevisit(wideImager, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	ten, err := MeanRevisit(wideImager, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := float64(one) / float64(ten); math.Abs(ratio-10) > 1e-9 {
		t.Errorf("10× fleet should give 10× faster revisit, got %v×", ratio)
	}
}

func TestMeanRevisitMagnitude(t *testing.T) {
	// One wide-swath satellite: equatorial band = 40 030 km; covers
	// 2×660 km per 95.6 min revolution → ≈30 revolutions ≈ 2 days.
	rev, err := MeanRevisit(wideImager, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rev < 24*time.Hour || rev > 96*time.Hour {
		t.Errorf("single-satellite revisit = %v, want ≈2 days", rev)
	}
	// High latitudes revisit faster (bands shrink).
	polarish, err := MeanRevisit(wideImager, 1, 60*math.Pi/180)
	if err != nil {
		t.Fatal(err)
	}
	if polarish >= rev {
		t.Errorf("60° revisit %v should beat equatorial %v", polarish, rev)
	}
}

func TestSatellitesForRevisitRoundTrip(t *testing.T) {
	n, err := SatellitesForRevisit(wideImager, 30*time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n < 50 {
		t.Errorf("30-minute equatorial revisit needs %d satellites, want large fleet", n)
	}
	got, err := MeanRevisit(wideImager, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got > 30*time.Minute {
		t.Errorf("%d satellites give %v revisit, want ≤ 30 min", n, got)
	}
	// One fewer satellite must miss the target.
	if n > 1 {
		worse, err := MeanRevisit(wideImager, n-1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if worse <= 30*time.Minute {
			t.Errorf("%d satellites already hit the target", n-1)
		}
	}
}

func TestRevisitValidation(t *testing.T) {
	if _, err := MeanRevisit(wideImager, 0, 0); err == nil {
		t.Error("zero satellites accepted")
	}
	if _, err := MeanRevisit(wideImager, 1, math.Pi/2); err == nil {
		t.Error("polar singularity accepted")
	}
	if _, err := SatellitesForRevisit(wideImager, 0, 0); err == nil {
		t.Error("zero target accepted")
	}
}
