package constellation

import (
	"math"
	"testing"
	"time"

	"spacedc/internal/orbit"
)

var epoch = time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)

// chordKm returns the distance between satellites i and j of c at epoch.
func chordKm(c Constellation, i, j int) float64 {
	a := c.Satellites[i].Elements.StateAtJ2(epoch).Position
	return a.DistanceTo(c.Satellites[j].Elements.StateAtJ2(epoch).Position)
}

func TestRingOrbitSpaced(t *testing.T) {
	c, err := Ring(RingConfig{Name: "eo", Count: 64, AltKm: 550, IncRad: 0.9, Epoch: epoch, Spacing: OrbitSpaced})
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 64 {
		t.Fatalf("size = %d, want 64", c.Size())
	}
	// Adjacent spacing = 2π/64 of the circumference ≈ 680 km at 550 km alt.
	d := chordKm(c, 0, 1)
	r := orbit.EarthRadiusKm + 550
	want := 2 * r * math.Sin(math.Pi/64)
	if math.Abs(d-want) > 1 {
		t.Errorf("adjacent distance = %v km, want %v", d, want)
	}
	// All satellites at the same altitude.
	for i, s := range c.Satellites {
		if alt := s.Elements.StateAt(epoch).Position.Norm() - orbit.EarthRadiusKm; math.Abs(alt-550) > 0.01 {
			t.Errorf("sat %d altitude %v", i, alt)
		}
	}
}

func TestRingFrameSpaced(t *testing.T) {
	c, err := Ring(RingConfig{Name: "eo", Count: 64, AltKm: 550, Epoch: epoch,
		Spacing: FrameSpaced})
	if err != nil {
		t.Fatal(err)
	}
	d := chordKm(c, 0, 1)
	if math.Abs(d-DefaultFrameSpacingKm) > 0.1 {
		t.Errorf("frame spacing = %v km, want %v", d, DefaultFrameSpacingKm)
	}
	// Frame-spaced satellites are far closer than orbit-spaced ones.
	oc, _ := Ring(RingConfig{Name: "eo", Count: 64, AltKm: 550, Epoch: epoch, Spacing: OrbitSpaced})
	od := chordKm(oc, 0, 1)
	if d >= od {
		t.Errorf("frame-spaced (%v km) should be tighter than orbit-spaced (%v km)", d, od)
	}
}

func TestRingValidation(t *testing.T) {
	if _, err := Ring(RingConfig{Count: 0, AltKm: 550, Epoch: epoch}); err == nil {
		t.Error("zero count accepted")
	}
	if _, err := Ring(RingConfig{Count: 4, AltKm: -5, Epoch: epoch}); err == nil {
		t.Error("negative altitude accepted")
	}
	// Too many frame-spaced satellites to fit the plane.
	if _, err := Ring(RingConfig{Count: 100000, AltKm: 550, Epoch: epoch,
		Spacing: FrameSpaced, FrameSpacingKm: 1000}); err == nil {
		t.Error("overfull frame-spaced plane accepted")
	}
	if _, err := Ring(RingConfig{Count: 4, AltKm: 550, Epoch: epoch, Spacing: Spacing(99)}); err == nil {
		t.Error("unknown spacing accepted")
	}
}

func TestSatelliteClasses(t *testing.T) {
	cls := Classes()
	if len(cls) != 5 {
		t.Fatalf("got %d classes, want 5 (Table 7)", len(cls))
	}
	// Classes are ordered by growing max power.
	for i := 1; i < len(cls); i++ {
		if cls[i].MaxPower < cls[i-1].MaxPower {
			t.Errorf("classes out of order at %d: %v < %v", i, cls[i].MaxPower, cls[i-1].MaxPower)
		}
	}
}

func TestTable1Inventory(t *testing.T) {
	rows := Table1()
	if len(rows) != 12 {
		t.Fatalf("Table 1 has %d rows, want 12", len(rows))
	}
	var totalSats int
	subMeter := 0
	for _, r := range rows {
		if r.SatelliteCount <= 0 {
			t.Errorf("%s: bad satellite count %d", r.Constellation, r.SatelliteCount)
		}
		if r.SpatialResM <= 0 {
			t.Errorf("%s: bad resolution %v", r.Constellation, r.SpatialResM)
		}
		totalSats += r.SatelliteCount
		if r.SpatialResM < 1 {
			subMeter++
		}
	}
	// The paper's point: sub-meter targets are now routine.
	if subMeter < 3 {
		t.Errorf("only %d sub-meter constellations; Table 1 should have several", subMeter)
	}
	if totalSats < 2000 {
		t.Errorf("total planned satellites %d seems too low", totalSats)
	}
	// EarthNow is the continuous-imaging outlier.
	found := false
	for _, r := range rows {
		if r.Constellation == "EarthNow" && r.TemporalResSec == Continuous {
			found = true
		}
	}
	if !found {
		t.Error("EarthNow should have continuous temporal resolution")
	}
}

func TestFig2MilestonesImprove(t *testing.T) {
	ms := Fig2Milestones()
	if len(ms) < 10 {
		t.Fatalf("too few Fig 2 milestones: %d", len(ms))
	}
	// Within each track, the best-so-far resolution improves over time.
	// (Individual launches can be coarser — e.g. smallsats — but the
	// frontier moves toward finer resolution, which is the paper's point.)
	for _, gov := range []bool{true, false} {
		best := math.Inf(1)
		prevYear := 0
		improvements := 0
		for _, m := range ms {
			if m.Government != gov {
				continue
			}
			if m.Year < prevYear {
				t.Errorf("milestones out of year order: %v", m)
			}
			if m.ResM < best {
				best = m.ResM
				improvements++
			}
			prevYear = m.Year
		}
		if improvements < 4 {
			t.Errorf("gov=%v: frontier improved only %d times", gov, improvements)
		}
		if best > 0.3 {
			t.Errorf("gov=%v: best resolution %v m never reached sub-30cm", gov, best)
		}
	}
	// Key Hole outperforms commercial at comparable epochs (paper's Fig 2 caption).
	if ms[0].ResM <= 0 {
		t.Error("bad first milestone")
	}
}

func TestFig3MilestonesGrow(t *testing.T) {
	ms := Fig3Milestones()
	if len(ms) < 8 {
		t.Fatalf("too few Fig 3 milestones: %d", len(ms))
	}
	first, last := ms[0], ms[len(ms)-1]
	if last.RateBps <= first.RateBps {
		t.Error("downlink capacity should grow over time")
	}
	// But growth over 50 years is only ~2 orders of magnitude (bandwidth
	// limited) — nothing like the data generation growth.
	if last.RateBps/first.RateBps > 1e4 {
		t.Error("downlink growth looks implausibly fast for an RF-limited channel")
	}
}

func TestSpacingString(t *testing.T) {
	if OrbitSpaced.String() != "orbit-spaced" || FrameSpaced.String() != "frame-spaced" {
		t.Error("spacing names wrong")
	}
	if Spacing(42).String() != "unknown" {
		t.Error("unknown spacing should say unknown")
	}
}
