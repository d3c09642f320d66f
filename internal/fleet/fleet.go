// Package fleet models SµDC fleet reliability over a mission: COTS devices
// fail both randomly and by accumulated radiation dose, on-board spares
// absorb failures (§9: "back-up hardware is also used to extend the
// lifetime of a satellite"), and a Monte Carlo over device lifetimes
// yields the fleet's capacity profile and availability — the number the
// redundancy-vs-spares design decision actually turns on.
package fleet

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"spacedc/internal/radiation"
)

// FailureModel describes one compute device's failure behavior.
type FailureModel struct {
	// RandomAnnualRate is the exponential random-failure rate (1/yr):
	// commodity server hardware runs ~2-6%/yr.
	RandomAnnualRate float64
	// DoseToleranceKrad is the total-dose budget; the device wears out
	// when the orbit's dose rate exhausts it.
	DoseToleranceKrad float64
	// DoseRateKradYr is the orbit's annual dose.
	DoseRateKradYr float64
	// DoseSpread is the lognormal sigma of part-to-part dose tolerance
	// (0 = deterministic wear-out).
	DoseSpread float64
}

// COTSAtAltitude builds the default COTS GPU failure model for an orbit.
func COTSAtAltitude(altKm float64) FailureModel {
	return FailureModel{
		RandomAnnualRate:  0.04,
		DoseToleranceKrad: radiation.COTSGPU.ToleranceKrad,
		DoseRateKradYr:    radiation.DoseRateKradPerYear(altKm),
		DoseSpread:        0.3,
	}
}

// Validate checks the model.
func (f FailureModel) Validate() error {
	if f.RandomAnnualRate < 0 {
		return fmt.Errorf("fleet: negative random failure rate %v", f.RandomAnnualRate)
	}
	if f.DoseToleranceKrad <= 0 || f.DoseRateKradYr < 0 {
		return fmt.Errorf("fleet: bad dose parameters %v / %v", f.DoseToleranceKrad, f.DoseRateKradYr)
	}
	if f.DoseSpread < 0 {
		return fmt.Errorf("fleet: negative dose spread %v", f.DoseSpread)
	}
	return nil
}

// sampleLifetime draws one device lifetime in years.
func (f FailureModel) sampleLifetime(rng *rand.Rand) float64 {
	life := math.Inf(1)
	if f.RandomAnnualRate > 0 {
		life = rng.ExpFloat64() / f.RandomAnnualRate
	}
	if f.DoseRateKradYr > 0 {
		tol := f.DoseToleranceKrad
		if f.DoseSpread > 0 {
			tol *= math.Exp(f.DoseSpread * rng.NormFloat64())
		}
		if wearOut := tol / f.DoseRateKradYr; wearOut < life {
			life = wearOut
		}
	}
	return life
}

// Config describes a fleet reliability run.
type Config struct {
	SuDCs          int
	DevicesPerSuDC int
	// SparesPerSuDC are powered-off devices swapped in on failure
	// (spares do not accumulate operational random failures while off,
	// but do take dose).
	SparesPerSuDC int
	Failure       FailureModel
	MissionYears  float64
	// RequiredCapacity is the fleet-wide fraction of nominal device
	// capacity below which the mission is "unavailable" (e.g. 0.9).
	RequiredCapacity float64
	Trials           int
	Seed             int64
}

// Validate checks the config.
func (c Config) Validate() error {
	if c.SuDCs <= 0 || c.DevicesPerSuDC <= 0 {
		return fmt.Errorf("fleet: need SµDCs and devices")
	}
	if c.SparesPerSuDC < 0 {
		return fmt.Errorf("fleet: negative spares")
	}
	if c.MissionYears <= 0 || c.Trials <= 0 {
		return fmt.Errorf("fleet: need positive mission duration and trials")
	}
	if c.RequiredCapacity <= 0 || c.RequiredCapacity > 1 {
		return fmt.Errorf("fleet: required capacity %v outside (0, 1]", c.RequiredCapacity)
	}
	return c.Failure.Validate()
}

// Result summarizes the Monte Carlo.
type Result struct {
	// Availability is the mean fraction of the mission during which the
	// fleet held RequiredCapacity.
	Availability float64
	// MeanEndCapacity is the mean capacity fraction at end of mission.
	MeanEndCapacity float64
	// MeanTimeToDegradedYears is the mean time until capacity first
	// dropped below the requirement (MissionYears when it never did).
	MeanTimeToDegradedYears float64
}

// Simulate runs the Monte Carlo.
func Simulate(cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	totalDevices := cfg.SuDCs * cfg.DevicesPerSuDC

	var res Result
	for trial := 0; trial < cfg.Trials; trial++ {
		// Active devices: sampled lifetimes. Each failure consumes a
		// spare if one remains on that SµDC; the spare's life restarts
		// from the swap (dose-limited from launch is conservative folded
		// into the same sample).
		type failure struct {
			time float64
			sudc int
		}
		var failures []failure
		for s := 0; s < cfg.SuDCs; s++ {
			for d := 0; d < cfg.DevicesPerSuDC; d++ {
				failures = append(failures, failure{cfg.Failure.sampleLifetime(rng), s})
			}
		}
		sort.Slice(failures, func(i, j int) bool { return failures[i].time < failures[j].time })

		spares := make([]int, cfg.SuDCs)
		for s := range spares {
			spares[s] = cfg.SparesPerSuDC
		}
		alive := totalDevices
		degradedAt := cfg.MissionYears
		availableTime := 0.0
		prevT := 0.0
		capacity := func() float64 { return float64(alive) / float64(totalDevices) }

		for _, f := range failures {
			t := math.Min(f.time, cfg.MissionYears)
			if capacity() >= cfg.RequiredCapacity {
				availableTime += t - prevT
			}
			prevT = t
			if f.time > cfg.MissionYears {
				break
			}
			if spares[f.sudc] > 0 {
				spares[f.sudc]--
				// Replacement: schedule its own failure by inserting a
				// fresh lifetime — approximated by simply not counting
				// this failure (the replacement statistically carries
				// the device to another full lifetime sample, beyond
				// most missions).
				continue
			}
			alive--
			if capacity() < cfg.RequiredCapacity && degradedAt == cfg.MissionYears {
				degradedAt = f.time
			}
		}
		if prevT < cfg.MissionYears && capacity() >= cfg.RequiredCapacity {
			availableTime += cfg.MissionYears - prevT
		}
		res.Availability += availableTime / cfg.MissionYears
		res.MeanEndCapacity += capacity()
		res.MeanTimeToDegradedYears += degradedAt
	}
	n := float64(cfg.Trials)
	res.Availability /= n
	res.MeanEndCapacity /= n
	res.MeanTimeToDegradedYears /= n
	return res, nil
}
