package orbit

import "math"

// This file models atmospheric drag and the maneuvers it forces on SµDC
// operators (§9): station-keeping boost budgets at LEO, orbital lifetime
// without boosting, end-of-life disposal burns for LEO, and graveyard
// re-orbits for GEO.

// atmosphereBand is one band of the piecewise-exponential static
// atmosphere (CIRA-72 style, as tabulated by Vallado): density
// ρ(h) = ρ₀·exp(-(h-h₀)/H) within the band.
type atmosphereBand struct {
	h0Km    float64
	rho0    float64 // kg/m³ at h0
	scaleKm float64
}

var atmosphereBands = []atmosphereBand{
	{100, 5.297e-7, 5.877},
	{110, 9.661e-8, 7.263},
	{120, 2.438e-8, 9.473},
	{130, 8.484e-9, 12.636},
	{150, 2.070e-9, 22.523},
	{180, 5.464e-10, 29.740},
	{200, 2.789e-10, 37.105},
	{250, 7.248e-11, 45.546},
	{300, 2.418e-11, 53.628},
	{350, 9.518e-12, 53.298},
	{400, 3.725e-12, 58.515},
	{450, 1.585e-12, 60.828},
	{500, 6.967e-13, 63.822},
	{600, 1.454e-13, 71.835},
	{700, 3.614e-14, 88.667},
	{800, 1.170e-14, 124.64},
	{900, 5.245e-15, 181.05},
	{1000, 3.019e-15, 268.00},
}

// AtmosphereDensity returns the static atmospheric density in kg/m³ at the
// given altitude. Below 100 km (the entry interface for this model) it
// clamps to the lowest band; above 1000 km it extrapolates the last band's
// scale height.
func AtmosphereDensity(altKm float64) float64 {
	if altKm <= atmosphereBands[0].h0Km {
		return atmosphereBands[0].rho0
	}
	band := atmosphereBands[len(atmosphereBands)-1]
	for i := len(atmosphereBands) - 1; i >= 0; i-- {
		if altKm >= atmosphereBands[i].h0Km {
			band = atmosphereBands[i]
			break
		}
	}
	return band.rho0 * math.Exp(-(altKm-band.h0Km)/band.scaleKm)
}

// DragBody captures a spacecraft's ballistic properties.
type DragBody struct {
	MassKg float64
	AreaM2 float64 // cross-sectional area normal to velocity
	Cd     float64 // drag coefficient; 0 means the standard 2.2
}

// cd returns the effective drag coefficient.
func (b DragBody) cd() float64 {
	if b.Cd == 0 {
		return 2.2
	}
	return b.Cd
}

// BallisticCoefficient returns CdA/m in m²/kg (larger decays faster).
func (b DragBody) BallisticCoefficient() float64 {
	return b.cd() * b.AreaM2 / b.MassKg
}

// DecayRateKmPerYear returns the semi-major-axis decay rate of a circular
// orbit at altKm: da/dt = -√(µa)·ρ·(CdA/m).
func (b DragBody) DecayRateKmPerYear(altKm float64) float64 {
	a := EarthRadiusKm + altKm
	rhoKgM3 := AtmosphereDensity(altKm)
	// Convert: ρ in kg/km³ and CdA/m in km²/kg keeps everything in km.
	rho := rhoKgM3 * 1e9
	bc := b.BallisticCoefficient() * 1e-6
	kmPerSec := math.Sqrt(EarthMuKm3S2*a) * rho * bc
	return kmPerSec * 86400 * 365.25
}

// LifetimeYears integrates the decay of an initially circular orbit from
// altKm down to the 120 km entry interface, stepping adaptively. Orbits
// above ~1000 km return very large values; the integration caps at
// maxYears (0 means 500).
func (b DragBody) LifetimeYears(altKm, maxYears float64) float64 {
	if maxYears == 0 {
		maxYears = 500
	}
	const entryKm = 120.0
	alt := altKm
	years := 0.0
	for alt > entryKm && years < maxYears {
		rate := b.DecayRateKmPerYear(alt) // km/yr, positive
		if rate <= 0 {
			return maxYears
		}
		// Step so altitude drops by at most 5 km or 2% of a scale height.
		dt := 5.0 / rate
		if dt > 0.25 {
			dt = 0.25 // never step more than a quarter year
		}
		alt -= rate * dt
		years += dt
	}
	if years >= maxYears {
		return maxYears
	}
	return years
}

// BoostDeltaVPerYear returns the Δv per year needed to hold a circular
// orbit against drag: the drag deceleration integrated over a year.
func (b DragBody) BoostDeltaVPerYear(altKm float64) float64 {
	a := EarthRadiusKm + altKm
	v := math.Sqrt(EarthMuKm3S2/a) * 1e3 // m/s
	rho := AtmosphereDensity(altKm)
	accel := 0.5 * rho * v * v * b.BallisticCoefficient() // m/s²
	return accel * 86400 * 365.25
}

// HohmannDeltaV returns the total Δv (m/s) of a two-burn Hohmann transfer
// between circular orbits at the given altitudes.
func HohmannDeltaV(fromAltKm, toAltKm float64) float64 {
	r1 := EarthRadiusKm + fromAltKm
	r2 := EarthRadiusKm + toAltKm
	if r1 == r2 {
		return 0
	}
	mu := EarthMuKm3S2
	at := (r1 + r2) / 2
	v1 := math.Sqrt(mu / r1)
	v2 := math.Sqrt(mu / r2)
	vp := math.Sqrt(mu * (2/r1 - 1/at)) // transfer perigee speed (at r1)
	va := math.Sqrt(mu * (2/r2 - 1/at)) // transfer apogee speed (at r2)
	return (math.Abs(vp-v1) + math.Abs(v2-va)) * 1e3
}

// DisposalDeltaV returns the single-burn Δv (m/s) to drop a LEO
// satellite's perigee to the disposal altitude (atmospheric re-entry,
// §9's "disposal orbit"): an apogee burn lowering perigee from a circular
// orbit at altKm to perigeeKm.
func DisposalDeltaV(altKm, perigeeKm float64) float64 {
	r1 := EarthRadiusKm + altKm
	rp := EarthRadiusKm + perigeeKm
	if rp >= r1 {
		return 0
	}
	mu := EarthMuKm3S2
	vCirc := math.Sqrt(mu / r1)
	at := (r1 + rp) / 2
	vNew := math.Sqrt(mu * (2/r1 - 1/at))
	return (vCirc - vNew) * 1e3
}

// GraveyardDeltaV returns the Δv (m/s) to raise a GEO satellite ~300 km
// into the graveyard orbit (§9's GEO retirement).
func GraveyardDeltaV() float64 {
	return HohmannDeltaV(GeostationaryAltitudeKm, GeostationaryAltitudeKm+300)
}
