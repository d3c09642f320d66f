package orbit

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestFindWindowsSyntheticSquareWave(t *testing.T) {
	start := testEpoch
	// Condition true during minutes [10,20) and [40,50) of each hour.
	cond := func(tm time.Time) (bool, error) {
		m := tm.Sub(start).Minutes()
		mm := math.Mod(m, 60)
		return (mm >= 10 && mm < 20) || (mm >= 40 && mm < 50), nil
	}
	ws, err := FindWindows(cond, start, 2*time.Hour, time.Minute, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 4 {
		t.Fatalf("got %d windows, want 4: %v", len(ws), ws)
	}
	for i, w := range ws {
		if d := w.Duration().Minutes(); math.Abs(d-10) > 0.1 {
			t.Errorf("window %d duration = %v min, want 10", i, d)
		}
	}
	// First window must start near +10 min.
	if off := ws[0].Start.Sub(start).Minutes(); math.Abs(off-10) > 0.1 {
		t.Errorf("first window starts at +%v min, want 10", off)
	}
}

func TestFindWindowsOpenAtEdges(t *testing.T) {
	start := testEpoch
	// True for the first 5 minutes and the last 5 minutes of a 30-min span.
	cond := func(tm time.Time) (bool, error) {
		m := tm.Sub(start).Minutes()
		return m < 5 || m >= 25, nil
	}
	ws, err := FindWindows(cond, start, 30*time.Minute, time.Minute, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) != 2 {
		t.Fatalf("got %d windows, want 2: %v", len(ws), ws)
	}
	if !ws[0].Start.Equal(start) {
		t.Errorf("first window should start at span start")
	}
	if !ws[1].End.Equal(start.Add(30 * time.Minute)) {
		t.Errorf("last window should end at span end")
	}
}

func TestFindWindowsAlwaysAndNever(t *testing.T) {
	always := func(time.Time) (bool, error) { return true, nil }
	never := func(time.Time) (bool, error) { return false, nil }
	ws, err := FindWindows(always, testEpoch, time.Hour, time.Minute, time.Second)
	if err != nil || len(ws) != 1 || ws[0].Duration() != time.Hour {
		t.Errorf("always-true: %v, %v", ws, err)
	}
	ws, err = FindWindows(never, testEpoch, time.Hour, time.Minute, time.Second)
	if err != nil || len(ws) != 0 {
		t.Errorf("never-true: %v, %v", ws, err)
	}
}

func TestFindWindowsPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	cond := func(time.Time) (bool, error) { return false, boom }
	if _, err := FindWindows(cond, testEpoch, time.Hour, time.Minute, time.Second); !errors.Is(err, boom) {
		t.Errorf("error not propagated: %v", err)
	}
}

func TestGroundStationPassDuration(t *testing.T) {
	// A 550 km satellite passing directly over a station: single-pass
	// duration above 5° elevation is roughly 6–9 minutes.
	epoch := testEpoch
	el := CircularLEO(550, 0, 0, 0, epoch) // equatorial orbit
	site := Geodetic{LatRad: 0, LonRad: 0}
	prop := J2Propagator{Elements: el}

	ws, err := FindWindows(GroundStationVisibility(prop, site, 5*math.Pi/180),
		epoch, 24*time.Hour, 30*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(ws) == 0 {
		t.Fatal("equatorial satellite never passes equatorial station")
	}
	for i, w := range ws {
		if d := w.Duration().Minutes(); d < 4 || d > 12 {
			t.Errorf("pass %d duration = %.1f min, want 4–12", i, d)
		}
	}
	// The satellite laps the station roughly every ~101 min relative
	// period... just require several passes per day.
	if len(ws) < 5 {
		t.Errorf("only %d passes in 24 h, want several", len(ws))
	}
}

func TestInterSatelliteVisibilityRing(t *testing.T) {
	// Two satellites in the same circular orbit separated by 5.6° (64-sat
	// ring): always visible. Separated by 180°: never visible.
	el0 := CircularLEO(550, 53*math.Pi/180, 0, 0, testEpoch)
	elNear := CircularLEO(550, 53*math.Pi/180, 0, 2*math.Pi/64, testEpoch)
	elFar := CircularLEO(550, 53*math.Pi/180, 0, math.Pi, testEpoch)

	nearCond := AnyVisible(J2Propagator{el0}, []Propagator{J2Propagator{elNear}}, AtmosphereGrazeKm)
	farCond := AnyVisible(J2Propagator{el0}, []Propagator{J2Propagator{elFar}}, AtmosphereGrazeKm)

	for dt := time.Duration(0); dt < 2*time.Hour; dt += 5 * time.Minute {
		tm := testEpoch.Add(dt)
		if ok, err := nearCond(tm); err != nil || !ok {
			t.Errorf("adjacent ring satellites lost LOS at +%v (err %v)", dt, err)
		}
		if ok, err := farCond(tm); err != nil || ok {
			t.Errorf("antipodal satellites gained LOS at +%v (err %v)", dt, err)
		}
	}
}

func TestThreeGEOCoverLEO(t *testing.T) {
	// The Fig 15 claim: 3 GEO SµDCs spaced 120° apart give every LEO
	// satellite line of sight to at least one at all times.
	epoch := testEpoch
	geos := []Propagator{
		J2Propagator{Geostationary(0, epoch)},
		J2Propagator{Geostationary(2*math.Pi/3, epoch)},
		J2Propagator{Geostationary(4*math.Pi/3, epoch)},
	}
	leos := []Elements{
		CircularLEO(550, 53*math.Pi/180, 0, 0, epoch),
		CircularLEO(550, 97.6*math.Pi/180, 1.0, 2.5, epoch), // SSO-like polar
		CircularLEO(550, 0, 0, 1.1, epoch),                  // equatorial
	}
	for i, leo := range leos {
		cond := AnyVisible(J2Propagator{leo}, geos, AtmosphereGrazeKm)
		gap, err := CoverageGap(cond, epoch, 24*time.Hour, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		if gap > 0 {
			t.Errorf("LEO %d: coverage gap %v, want continuous coverage", i, gap)
		}
	}
}

func TestSingleGEODoesNotCoverLEO(t *testing.T) {
	// Sanity check of the same machinery: one GEO cannot cover a LEO
	// satellite around its whole orbit.
	epoch := testEpoch
	geo := []Propagator{J2Propagator{Geostationary(0, epoch)}}
	leo := CircularLEO(550, 53*math.Pi/180, 0, 0, epoch)
	cond := AnyVisible(J2Propagator{leo}, geo, AtmosphereGrazeKm)
	gap, err := CoverageGap(cond, epoch, 3*time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if gap == 0 {
		t.Error("single GEO should leave coverage gaps for LEO")
	}
}

func TestGroundTrackInclinationBound(t *testing.T) {
	// Ground track latitude never exceeds orbital inclination.
	el := CircularLEO(550, 53*math.Pi/180, 0.7, 0, testEpoch)
	pts, err := GroundTrack(J2Propagator{el}, testEpoch, 2*el.Period(), 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 100 {
		t.Fatalf("too few track points: %d", len(pts))
	}
	maxLat := 0.0
	for _, p := range pts {
		if l := math.Abs(p.LatDeg()); l > maxLat {
			maxLat = l
		}
	}
	if maxLat > 53.5 {
		t.Errorf("max ground track latitude %v° exceeds inclination", maxLat)
	}
	if maxLat < 50 {
		t.Errorf("max ground track latitude %v° too low for 53° orbit", maxLat)
	}
}

func TestGroundTrackAltitude(t *testing.T) {
	el := CircularLEO(550, 1, 0, 0, testEpoch)
	pts, err := GroundTrack(J2Propagator{el}, testEpoch, 30*time.Minute, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		// Geodetic altitude differs from spherical altitude by up to ~21 km
		// (flattening).
		if p.AltKm < 520 || p.AltKm > 580 {
			t.Errorf("track altitude %v km, want ≈550", p.AltKm)
		}
	}
}

func TestSwathWidth(t *testing.T) {
	// Wider half-angle, wider swath; zero at zero angle.
	if SwathWidthKm(550, 0) != 0 {
		t.Error("zero half-angle should give zero swath")
	}
	narrow := SwathWidthKm(550, 5*math.Pi/180)
	wide := SwathWidthKm(550, 30*math.Pi/180)
	if narrow <= 0 || wide <= narrow {
		t.Errorf("swath not monotonic: %v, %v", narrow, wide)
	}
	// Small-angle approximation: swath ≈ 2·h·tan(θ) ≈ 96 km at 5°.
	if math.Abs(narrow-96) > 10 {
		t.Errorf("5° swath at 550 km = %v km, want ≈96", narrow)
	}
}

func TestCoverageGapCountsLongestRun(t *testing.T) {
	start := testEpoch
	// False during [10,25) minutes, else true.
	cond := func(tm time.Time) (bool, error) {
		m := tm.Sub(start).Minutes()
		return !(m >= 10 && m < 25), nil
	}
	gap, err := CoverageGap(cond, start, time.Hour, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gap.Minutes()-15) > 1.5 {
		t.Errorf("gap = %v, want ≈15 min", gap)
	}
}
