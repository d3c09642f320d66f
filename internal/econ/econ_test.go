package econ

import (
	"math"
	"testing"

	"spacedc/internal/units"
)

// baseDesign is a mid-sized cluster design the property tests perturb.
func baseDesign() Design {
	return Design{
		Planes:         2,
		SatsPerPlane:   16,
		AltitudeKm:     550,
		K:              4,
		Split:          2,
		DevicesPerSuDC: 4,
		Recovery:       RecoveryRetry,
	}
}

func mustCost(t *testing.T, m CostModel, d Design) Breakdown {
	t.Helper()
	b, err := Cost(m, d)
	if err != nil {
		t.Fatalf("Cost(%+v): %v", d, err)
	}
	return b
}

// TestCostStrictlyPositive asserts every valid design costs strictly more
// than nothing, across the design axes and both deployment shapes — the
// guard that keeps a degenerate candidate from scoring ∞ goodput/$.
func TestCostStrictlyPositive(t *testing.T) {
	m := DefaultCostModel()
	designs := []Design{
		{Planes: 1, SatsPerPlane: 1, AltitudeKm: 300, K: 2, Split: 1, DevicesPerSuDC: 1, Recovery: RecoveryNone},
		baseDesign(),
		{Planes: 8, SatsPerPlane: 64, AltitudeKm: 1200, K: 8, Split: 4, DevicesPerSuDC: 16, Recovery: RecoveryTMR},
		{Planes: 3, SatsPerPlane: 24, AltitudeKm: 550, GEO: true, GEOSinks: 3, DevicesPerSuDC: 8, Recovery: RecoveryCheckpoint},
	}
	for _, d := range designs {
		b := mustCost(t, m, d)
		if b.TotalCost <= 0 || b.PerHour <= 0 || b.WetMassKg <= 0 || b.PowerW <= 0 {
			t.Errorf("design %+v: non-positive breakdown %+v", d, b)
		}
		if b.LaunchCost <= 0 || b.HardwareCost <= 0 {
			t.Errorf("design %+v: non-positive cost components %+v", d, b)
		}
	}
}

// TestCostMonotone asserts cost is monotone non-decreasing (strictly
// increasing, in fact) in satellites per plane, planes, and devices.
func TestCostMonotone(t *testing.T) {
	m := DefaultCostModel()
	axes := []struct {
		name string
		bump func(Design) Design
	}{
		{"sats-per-plane", func(d Design) Design { d.SatsPerPlane++; return d }},
		{"planes", func(d Design) Design { d.Planes++; return d }},
		{"devices", func(d Design) Design { d.DevicesPerSuDC++; return d }},
		{"altitude", func(d Design) Design { d.AltitudeKm += 100; return d }},
	}
	for _, ax := range axes {
		d := baseDesign()
		prev := mustCost(t, m, d)
		for i := 0; i < 8; i++ {
			d = ax.bump(d)
			cur := mustCost(t, m, d)
			if cur.TotalCost < prev.TotalCost {
				t.Fatalf("%s step %d: cost decreased %v -> %v", ax.name, i, prev.TotalCost, cur.TotalCost)
			}
			if ax.name != "altitude" && cur.TotalCost == prev.TotalCost {
				t.Fatalf("%s step %d: cost flat at %v", ax.name, i, cur.TotalCost)
			}
			prev = cur
		}
	}

	// GEO designs grow with planes too (more EO sats), even though the
	// sink count is fixed.
	d := Design{Planes: 1, SatsPerPlane: 16, AltitudeKm: 550, GEO: true, GEOSinks: 3,
		DevicesPerSuDC: 4, Recovery: RecoveryNone}
	prev := mustCost(t, m, d)
	d.Planes = 2
	if cur := mustCost(t, m, d); cur.TotalCost <= prev.TotalCost {
		t.Errorf("GEO design: doubling planes did not increase cost (%v -> %v)", prev.TotalCost, cur.TotalCost)
	}
}

// TestAmortizationPreservesRanking asserts the amortization horizon is a
// pure scale on the $/hour denominator: whichever design is cheaper at one
// horizon stays cheaper at any other, so the optimizer's ranking is
// horizon-invariant.
func TestAmortizationPreservesRanking(t *testing.T) {
	cheap := baseDesign()
	rich := baseDesign()
	rich.SatsPerPlane *= 2
	rich.DevicesPerSuDC *= 2
	rich.Recovery = RecoveryTMR

	for _, years := range []float64{0.5, 1, 3, 5, 10, 25} {
		m := DefaultCostModel()
		m.AmortizationYears = years
		cb := mustCost(t, m, cheap)
		rb := mustCost(t, m, rich)
		if cb.PerHour >= rb.PerHour {
			t.Errorf("horizon %v y: cheap design per-hour %v ≥ rich %v", years, cb.PerHour, rb.PerHour)
		}
		// The ratio, not just the ordering, is horizon-invariant.
		base := DefaultCostModel()
		cb0 := mustCost(t, base, cheap)
		rb0 := mustCost(t, base, rich)
		got := float64(cb.PerHour) / float64(rb.PerHour)
		want := float64(cb0.PerHour) / float64(rb0.PerHour)
		if math.Abs(got-want) > 1e-9*want {
			t.Errorf("horizon %v y: per-hour ratio %v, want %v", years, got, want)
		}
	}
}

// TestRecoveryFactorOrdering asserts replication prices protection in the
// §9 ladder order: software-only < checkpoint < DMR < TMR.
func TestRecoveryFactorOrdering(t *testing.T) {
	m := DefaultCostModel()
	prev := units.Money(0)
	for _, rec := range []string{RecoveryNone, RecoveryCheckpoint, RecoveryDMR, RecoveryTMR} {
		d := baseDesign()
		d.Recovery = rec
		b := mustCost(t, m, d)
		if b.TotalCost <= prev {
			t.Errorf("recovery %s: cost %v not above previous rung %v", rec, b.TotalCost, prev)
		}
		prev = b.TotalCost
	}
	if _, err := RecoveryDeviceFactor("voodoo"); err == nil {
		t.Error("unknown recovery policy accepted")
	}
}

// TestCostRejectsInvalid asserts the validation surface: bad models and
// bad designs error instead of pricing nonsense.
func TestCostRejectsInvalid(t *testing.T) {
	good := DefaultCostModel()

	badModels := []func(CostModel) CostModel{
		func(m CostModel) CostModel { m.LaunchPerKg = 0; return m },
		func(m CostModel) CostModel { m.LaunchPerKg = units.Money(math.NaN()); return m },
		func(m CostModel) CostModel { m.SolarSpecificWPerKg = math.Inf(1); return m },
		func(m CostModel) CostModel { m.AmortizationYears = -1; return m },
		func(m CostModel) CostModel { m.PowerOverhead = 0.5; return m },
		func(m CostModel) CostModel { m.AltitudeSurcharge = math.NaN(); return m },
		func(m CostModel) CostModel { m.GEOLaunchMult = 0.9; return m },
	}
	for i, mutate := range badModels {
		if _, err := Cost(mutate(good), baseDesign()); err == nil {
			t.Errorf("bad model %d accepted", i)
		}
	}

	badDesigns := []func(Design) Design{
		func(d Design) Design { d.Planes = 0; return d },
		func(d Design) Design { d.SatsPerPlane = -4; return d },
		func(d Design) Design { d.AltitudeKm = math.NaN(); return d },
		func(d Design) Design { d.K = 3; return d },
		func(d Design) Design { d.K = 0; return d },
		func(d Design) Design { d.Split = 0; return d },
		func(d Design) Design { d.DevicesPerSuDC = 0; return d },
		func(d Design) Design { d.Recovery = "hope"; return d },
		func(d Design) Design { d.GEO = true; d.GEOSinks = 0; return d },
	}
	for i, mutate := range badDesigns {
		if _, err := Cost(good, mutate(baseDesign())); err == nil {
			t.Errorf("bad design %d accepted", i)
		}
	}
}

// TestCostOverflowErrors asserts extreme-but-individually-valid parameters
// that overflow the arithmetic surface as errors, not ±Inf.
func TestCostOverflowErrors(t *testing.T) {
	m := DefaultCostModel()
	m.LaunchPerKg = units.Money(math.MaxFloat64 / 2)
	m.EOSatMassKg = math.MaxFloat64 / 2
	if _, err := Cost(m, baseDesign()); err == nil {
		t.Error("overflowing model priced without error")
	}
}

// TestMultiShellCostStrictlyIncreasing asserts $/h grows strictly with
// every shell added to a stack: each shell is a full copy of the design
// at a higher (surcharged) altitude, so the stack can never get cheaper.
func TestMultiShellCostStrictlyIncreasing(t *testing.T) {
	m := DefaultCostModel()
	d := baseDesign()
	d.InterShell = InterShellAligned
	prev := mustCost(t, m, d).PerHour
	for shells := 2; shells <= 5; shells++ {
		d.Shells = shells
		cur := mustCost(t, m, d).PerHour
		if cur <= prev {
			t.Errorf("PerHour %v at %d shells ≤ %v at %d — not strictly increasing",
				cur, shells, prev, shells-1)
		}
		prev = cur
	}
}

// TestMultiShellCostMonotoneInAltitude asserts a stack's $/h is monotone
// non-decreasing in the base altitude: every shell (and both ends of every
// cross link) launches at a rate that only grows with altitude.
func TestMultiShellCostMonotoneInAltitude(t *testing.T) {
	m := DefaultCostModel()
	d := baseDesign()
	d.Shells = 3
	d.InterShell = InterShellNearest
	prev := units.Money(0)
	for _, alt := range []float64{350, 550, 800, 1200, 2000} {
		d.AltitudeKm = alt
		cur := mustCost(t, m, d).PerHour
		if cur < prev {
			t.Errorf("PerHour %v at base altitude %v km < %v at the lower base — not monotone", cur, alt, prev)
		}
		prev = cur
	}
}

// TestTwoShellCostIsExactSum pins the multi-shell pricing identity: a
// 2-shell design's launch and hardware costs equal — to the last bit, not
// within a tolerance — the two single-shell designs at their respective
// altitudes plus the cross-link terminal terms reconstructed from
// launchRate. The implementation accumulates in exactly this
// left-associated order, so any drift is a real model change.
func TestTwoShellCostIsExactSum(t *testing.T) {
	m := DefaultCostModel()
	d := baseDesign()
	d.Shells = 2
	d.InterShell = InterShellAligned
	got := mustCost(t, m, d)

	lo := d
	lo.Shells = 0
	lo.InterShell = ""
	hi := lo
	hi.AltitudeKm = d.AltitudeKm + ShellSpacingKm
	bLo := mustCost(t, m, lo)
	bHi := mustCost(t, m, hi)

	pairs := d.Planes * d.SatsPerPlane
	crossLaunch := float64(pairs) * m.ISLTerminalMassKg *
		(m.launchRate(lo.AltitudeKm) + m.launchRate(hi.AltitudeKm))
	crossHardware := float64(2*pairs) * float64(m.ISLTerminalCost)

	if want := units.Money(float64(bLo.LaunchCost) + float64(bHi.LaunchCost) + crossLaunch); got.LaunchCost != want {
		t.Errorf("LaunchCost = %v, want exact sum %v (Δ %v)", got.LaunchCost, want, got.LaunchCost-want)
	}
	if want := units.Money(float64(bLo.HardwareCost) + float64(bHi.HardwareCost) + crossHardware); got.HardwareCost != want {
		t.Errorf("HardwareCost = %v, want exact sum %v (Δ %v)", got.HardwareCost, want, got.HardwareCost-want)
	}
	if want := bLo.EOSats + bHi.EOSats; got.EOSats != want {
		t.Errorf("EOSats = %d, want %d", got.EOSats, want)
	}
	if want := bLo.SuDCs + bHi.SuDCs; got.SuDCs != want {
		t.Errorf("SuDCs = %d, want %d", got.SuDCs, want)
	}
	if want := bLo.ISLTerminals + bHi.ISLTerminals + 2*pairs; got.ISLTerminals != want {
		t.Errorf("ISLTerminals = %d, want %d (shells plus one cross pair per satellite)", got.ISLTerminals, want)
	}
	if want := bLo.WetMassKg + bHi.WetMassKg + float64(2*pairs)*m.ISLTerminalMassKg; got.WetMassKg != want {
		t.Errorf("WetMassKg = %v, want exact sum %v", got.WetMassKg, want)
	}
}

// TestMultiShellRejectsInvalid covers the multi-shell validation seams:
// GEO stacks, negative shell counts, and unknown inter-shell rules.
func TestMultiShellRejectsInvalid(t *testing.T) {
	m := DefaultCostModel()
	bad := []Design{
		func() Design { d := baseDesign(); d.Shells = -1; return d }(),
		func() Design { d := baseDesign(); d.Shells = 2; d.InterShell = "diagonal"; return d }(),
		{Planes: 2, SatsPerPlane: 8, AltitudeKm: 550, GEO: true, GEOSinks: 2,
			DevicesPerSuDC: 4, Recovery: RecoveryNone, Shells: 2},
	}
	for _, d := range bad {
		if _, err := Cost(m, d); err == nil {
			t.Errorf("Cost accepted invalid multi-shell design %+v", d)
		}
	}
}
