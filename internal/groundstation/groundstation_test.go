package groundstation

import (
	"math"
	"testing"
	"time"

	"spacedc/internal/datagen"
	"spacedc/internal/orbit"
	"spacedc/internal/units"
)

func TestTable2Counts(t *testing.T) {
	rows := Table2()
	if len(rows) != 9 {
		t.Fatalf("Table 2 has %d providers, want 9", len(rows))
	}
	// Spot-check the paper's totals.
	want := map[string]int{
		"AWS Ground Station":           11,
		"Azure Ground Stations":        19,
		"KSat Ground Network Services": 26,
		"Viasat Real-Time Earth":       14,
		"US Electrodynamics Inc":       2,
		"Swedish Space Corporation":    10,
		"Atlas Space Operations":       13,
		"Leaf Space":                   14,
		"RBC Signals":                  51,
	}
	for _, p := range rows {
		if got := p.Total(); got != want[p.Name] {
			t.Errorf("%s total = %d, want %d", p.Name, got, want[p.Name])
		}
	}
	if got := TotalStations(); got != 160 {
		t.Errorf("total stations = %d, want 160", got)
	}
}

func TestOnlyKSatReachesAntarctica(t *testing.T) {
	for _, p := range Table2() {
		hasAntarctica := p.Antarctica > 0
		if hasAntarctica != (p.Name == "KSat Ground Network Services") {
			t.Errorf("%s Antarctica = %d", p.Name, p.Antarctica)
		}
	}
}

func TestPolarStationSeesSSOEveryRevolution(t *testing.T) {
	// Sanity-couple the Table 2 geometry with the orbit package: a polar
	// station (Svalbard) should see a sun-synchronous satellite on most
	// revolutions; an equatorial station should not.
	epoch := time.Date(2026, 7, 1, 0, 0, 0, 0, time.UTC)
	el, ok := orbit.SunSynchronous(550, 0, 0, epoch)
	if !ok {
		t.Fatal("no SSO at 550 km")
	}
	prop := orbit.J2Propagator{Elements: el}
	deg := math.Pi / 180
	svalbard := orbit.Geodetic{LatRad: 78.2 * deg, LonRad: 15.4 * deg}
	singapore := orbit.Geodetic{LatRad: 1.3 * deg, LonRad: 103.8 * deg}

	span := 24 * time.Hour
	polarWindows, err := orbit.FindWindows(
		orbit.GroundStationVisibility(prop, svalbard, 5*deg), epoch, span, 30*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	equatorialWindows, err := orbit.FindWindows(
		orbit.GroundStationVisibility(prop, singapore, 5*deg), epoch, span, 30*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	revs := float64(span) / float64(el.Period()) // ≈15
	if float64(len(polarWindows)) < 0.6*revs {
		t.Errorf("Svalbard saw %d passes in %v revs; polar stations should see most", len(polarWindows), revs)
	}
	if len(equatorialWindows) >= len(polarWindows) {
		t.Errorf("equatorial station (%d passes) should see fewer than polar (%d)",
			len(equatorialWindows), len(polarWindows))
	}
}

func TestBudgetZeroChannels(t *testing.T) {
	pm := DefaultPassModel()
	rate := datagen.Default4K.DataRate(3, 0.95)
	b := pm.Budget(rate, 0)
	if b.Deficit != 1 {
		t.Errorf("zero channels deficit = %v, want 1", b.Deficit)
	}
	if b.DownlinkSeconds != 0 || b.Cost != 0 {
		t.Errorf("zero channels should cost nothing: %+v", b)
	}
}

func TestBudgetDeficitMonotonic(t *testing.T) {
	pm := DefaultPassModel()
	rate := datagen.Default4K.DataRate(1, 0.95)
	prev := 2.0
	for n := 0.0; n <= 16; n++ {
		b := pm.Budget(rate, n)
		if b.Deficit > prev+1e-12 {
			t.Fatalf("deficit increased with more channels at n=%v", n)
		}
		if b.Deficit < 0 || b.Deficit > 1 {
			t.Fatalf("deficit %v outside [0,1]", b.Deficit)
		}
		prev = b.Deficit
	}
}

func TestBudgetConservation(t *testing.T) {
	pm := DefaultPassModel()
	rate := datagen.Default4K.DataRate(0.3, 0.95)
	for n := 0.0; n <= 8; n += 2 {
		b := pm.Budget(rate, n)
		// Downlinked = generated × (1 - deficit).
		want := float64(b.GeneratedBits) * (1 - b.Deficit)
		if math.Abs(float64(b.DownlinkedBits)-want) > 1 {
			t.Errorf("n=%v: downlinked %v != generated×(1-DD) %v", n, float64(b.DownlinkedBits), want)
		}
		// Downlinked never exceeds channel capacity.
		if b.DownlinkedBits > b.DownlinkableBits {
			t.Errorf("n=%v: downlinked more than channel capacity", n)
		}
	}
}

func TestFig5Shape3mVsFine(t *testing.T) {
	// At 3 m with 95% early discard, a handful of channel-passes clears
	// the backlog; at 10 cm even dozens leave a large deficit.
	pm := DefaultPassModel()
	coarse := pm.Budget(datagen.Default4K.DataRate(3, 0.95), 1)
	if coarse.Deficit > 0.01 {
		t.Errorf("3 m / 95%% ED with 1 pass: deficit %v, want ≈0", coarse.Deficit)
	}
	fine := pm.Budget(datagen.Default4K.DataRate(0.1, 0.95), 32)
	if fine.Deficit < 0.5 {
		t.Errorf("10 cm / 95%% ED with 32 passes: deficit %v, want > 0.5", fine.Deficit)
	}
}

// channelsForZeroDeficit returns the channel-passes per revolution that
// downlink everything a satellite generating genRate produces.
func channelsForZeroDeficit(pm PassModel, genRate units.DataRate) float64 {
	gen := genRate.Volume(pm.PeriodSeconds)
	return math.Ceil(float64(gen) / float64(pm.ChannelRate.Volume(pm.PassSeconds)))
}

func TestChannelsForZeroDeficit(t *testing.T) {
	pm := DefaultPassModel()
	rate := datagen.Default4K.DataRate(1, 0.95)
	n := channelsForZeroDeficit(pm, rate)
	b := pm.Budget(rate, n)
	if b.Deficit > 1e-9 {
		t.Errorf("deficit %v with %v channels, want 0", b.Deficit, n)
	}
	if n > 1 {
		// One channel fewer must leave a deficit.
		if b2 := pm.Budget(rate, n-1); b2.Deficit <= 0 {
			t.Errorf("%v channels already achieve zero deficit", n-1)
		}
	}
}

func TestDownlinkCost(t *testing.T) {
	pm := DefaultPassModel()
	// If the satellite downlinks for exactly one pass (8 min), the cost
	// is 8 × $3 = $24.
	rate := pm.ChannelRate // generate exactly one pass worth over PassSeconds
	gen := units.DataRate(float64(rate) * pm.PassSeconds / pm.PeriodSeconds)
	b := pm.Budget(gen, 1)
	if math.Abs(float64(b.Cost)-24) > 0.01 {
		t.Errorf("one-pass cost = %v, want $24", b.Cost)
	}
}

func TestHighResolutionCostIsProhibitive(t *testing.T) {
	// The paper: at 10 cm with 99% early discard, downlink at commercial
	// rates costs over $1000/min for the constellation. Our model:
	// 64 satellites each needing many concurrent channels.
	pm := DefaultPassModel()
	rate := datagen.Default4K.DataRate(0.1, 0.99)
	b := pm.Budget(rate, channelsForZeroDeficit(pm, rate))
	perMinute := float64(b.Cost) * 64 / (pm.PeriodSeconds / 60)
	if perMinute < 1000 {
		t.Errorf("constellation downlink cost $%.0f/min, want > $1000 (paper)", perMinute)
	}
}

func TestPassModelValidate(t *testing.T) {
	if err := DefaultPassModel().Validate(); err != nil {
		t.Errorf("default model invalid: %v", err)
	}
	bad := DefaultPassModel()
	bad.ChannelRate = 0
	if bad.Validate() == nil {
		t.Error("zero rate accepted")
	}
	bad = DefaultPassModel()
	bad.PassSeconds = 7000
	if bad.Validate() == nil {
		t.Error("pass longer than revolution accepted")
	}
	bad = DefaultPassModel()
	bad.PeriodSeconds = 0
	if bad.Validate() == nil {
		t.Error("zero period accepted")
	}
}

func TestBudgetNegativeChannelsClamped(t *testing.T) {
	pm := DefaultPassModel()
	b := pm.Budget(100*units.Mbps, -3)
	if b.Deficit != 1 {
		t.Errorf("negative channels should clamp to zero: %+v", b)
	}
}
