package fleet

import (
	"math"
	"math/rand"
	"testing"
)

func baseConfig() Config {
	return Config{
		SuDCs:            4,
		DevicesPerSuDC:   11, // ~4 kW of RTX 3090s
		SparesPerSuDC:    0,
		Failure:          COTSAtAltitude(550),
		MissionYears:     5,
		RequiredCapacity: 0.9,
		Trials:           400,
		Seed:             1,
	}
}

func TestValidate(t *testing.T) {
	if err := baseConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	muts := map[string]func(*Config){
		"zero sudcs":    func(c *Config) { c.SuDCs = 0 },
		"zero devices":  func(c *Config) { c.DevicesPerSuDC = 0 },
		"neg spares":    func(c *Config) { c.SparesPerSuDC = -1 },
		"zero years":    func(c *Config) { c.MissionYears = 0 },
		"zero trials":   func(c *Config) { c.Trials = 0 },
		"bad capacity":  func(c *Config) { c.RequiredCapacity = 1.5 },
		"neg rate":      func(c *Config) { c.Failure.RandomAnnualRate = -1 },
		"zero dose tol": func(c *Config) { c.Failure.DoseToleranceKrad = 0 },
	}
	for name, mut := range muts {
		c := baseConfig()
		mut(&c)
		if c.Validate() == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

func TestNoFailuresPerfectAvailability(t *testing.T) {
	cfg := baseConfig()
	cfg.Failure = FailureModel{RandomAnnualRate: 0, DoseToleranceKrad: 1e9, DoseRateKradYr: 0}
	r, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Availability != 1 || r.MeanEndCapacity != 1 {
		t.Errorf("immortal devices should give perfect availability: %+v", r)
	}
	if r.MeanTimeToDegradedYears != cfg.MissionYears {
		t.Errorf("never degraded should report full mission: %v", r.MeanTimeToDegradedYears)
	}
}

func TestSparesImproveAvailability(t *testing.T) {
	noSpares := baseConfig()
	withSpares := baseConfig()
	withSpares.SparesPerSuDC = 3
	r0, err := Simulate(noSpares)
	if err != nil {
		t.Fatal(err)
	}
	r3, err := Simulate(withSpares)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Availability <= r0.Availability {
		t.Errorf("spares should raise availability: %v vs %v", r3.Availability, r0.Availability)
	}
	if r3.MeanEndCapacity <= r0.MeanEndCapacity {
		t.Errorf("spares should raise end capacity: %v vs %v", r3.MeanEndCapacity, r0.MeanEndCapacity)
	}
}

func TestHigherDoseKillsFleet(t *testing.T) {
	leo := baseConfig()
	belt := baseConfig()
	belt.Failure = COTSAtAltitude(4000) // inner belt
	rLEO, err := Simulate(leo)
	if err != nil {
		t.Fatal(err)
	}
	rBelt, err := Simulate(belt)
	if err != nil {
		t.Fatal(err)
	}
	if rBelt.Availability >= rLEO.Availability {
		t.Errorf("inner-belt fleet should fail fast: %v vs LEO %v", rBelt.Availability, rLEO.Availability)
	}
	if rBelt.MeanEndCapacity > 0.1 {
		t.Errorf("inner-belt COTS fleet end capacity %v, want near zero", rBelt.MeanEndCapacity)
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a, err := Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same seed should reproduce")
	}
}

// meanLifetimeYears estimates the expected device lifetime by sampling.
func meanLifetimeYears(f FailureModel, samples int, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	total := 0.0
	for i := 0; i < samples; i++ {
		total += f.sampleLifetime(rng)
	}
	return total / float64(samples)
}

func TestMeanLifetime(t *testing.T) {
	// Dose-dominated: COTS (20 krad) at 1 krad/yr wears out around 20
	// years before random failures matter much; at 4%/yr random the
	// combined mean sits well below 20.
	m := COTSAtAltitude(550)
	mean := meanLifetimeYears(m, 20000, 2)
	if mean < 5 || mean > 20 {
		t.Errorf("mean LEO device lifetime = %v yr, want ≈10-18", mean)
	}
	// No failures at all → effectively infinite (sampled as +Inf-free
	// since dose rate 0 gives Inf; guard with pure random).
	pure := FailureModel{RandomAnnualRate: 0.5, DoseToleranceKrad: 1e9, DoseRateKradYr: 1e-9}
	if got := meanLifetimeYears(pure, 50000, 3); math.Abs(got-2) > 0.2 {
		t.Errorf("pure random λ=0.5 mean = %v yr, want 2", got)
	}
}

func TestAvailabilityWithinBounds(t *testing.T) {
	r, err := Simulate(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	if r.Availability < 0 || r.Availability > 1 ||
		r.MeanEndCapacity < 0 || r.MeanEndCapacity > 1 {
		t.Errorf("out-of-range stats: %+v", r)
	}
	if r.MeanTimeToDegradedYears > baseConfig().MissionYears {
		t.Errorf("degraded time exceeds mission: %v", r.MeanTimeToDegradedYears)
	}
}
