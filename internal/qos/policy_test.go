package qos

import (
	"math"
	"testing"
)

// totalRatePerSec is the aggregate sustained admission capacity.
func totalRatePerSec(a *Admission) float64 {
	sum := 0.0
	for _, p := range a.pol {
		sum += p.RatePerSec
	}
	return sum
}

func TestAdmissionTokenBucket(t *testing.T) {
	a, err := NewAdmission([]ClassPolicy{{RatePerSec: 10, Burst: 5}})
	if err != nil {
		t.Fatal(err)
	}
	// The bucket starts full: exactly Burst admits at t=0.
	for i := 0; i < 5; i++ {
		if !a.Admit(0, 0, 1) {
			t.Fatalf("admit %d rejected with a full bucket", i)
		}
	}
	if a.Admit(0, 0, 1) {
		t.Fatal("admitted past the burst with no refill")
	}
	// A partial second refills at RatePerSec.
	n := 0
	for i := 0; i < 20; i++ {
		if a.Admit(0.3, 0, 1) {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("0.3 s refill admitted %d, want 3", n)
	}
	// A long idle stretch refills at most the burst depth.
	n = 0
	for i := 0; i < 20; i++ {
		if a.Admit(10, 0, 1) {
			n++
		}
	}
	if n != 5 {
		t.Fatalf("10 s refill admitted %d, want burst-capped 5", n)
	}
	if got := totalRatePerSec(a); got != 10 {
		t.Fatalf("totalRatePerSec = %v, want 10", got)
	}
}

func TestAdmissionScaleThrottlesRefill(t *testing.T) {
	a, err := NewAdmission([]ClassPolicy{{RatePerSec: 10, Burst: 1}})
	if err != nil {
		t.Fatal(err)
	}
	a.Admit(0, 0, 1) // drain the single-token bucket
	n := 0
	for i := 0; i < 20; i++ {
		if a.Admit(1, 0, 0.2) { // 20% degraded refill: 2 tokens/s, capped by burst 1
			n++
		}
	}
	if n != 1 {
		t.Fatalf("degraded refill admitted %d, want 1 (burst cap)", n)
	}
}

func TestAdmissionBorrowing(t *testing.T) {
	mk := func(borrow, lend bool) *Admission {
		a, err := NewAdmission([]ClassPolicy{
			{RatePerSec: 1, Burst: 1, Borrow: borrow},
			{RatePerSec: 1, Burst: 1},
			{RatePerSec: 1, Burst: 10, Lend: lend},
		})
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	a := mk(true, true)
	a.Admit(0, 0, 1) // class 0's own token
	// Class 0's bucket is dry; the lender's 10 tokens keep it admitted.
	for i := 0; i < 10; i++ {
		if !a.Admit(0, 0, 1) {
			t.Fatalf("borrow %d rejected with lender tokens available", i)
		}
	}
	if a.Admit(0, 0, 1) {
		t.Fatal("admitted with both own and lender buckets dry")
	}
	// Borrowing drained the lender: class 2 is now dry too.
	if a.Admit(0, 2, 1) {
		t.Fatal("lender still admitted after donating its whole bucket")
	}

	// No Borrow flag: the dry class cannot draw on the lender.
	a = mk(false, true)
	a.Admit(0, 0, 1)
	if a.Admit(0, 0, 1) {
		t.Fatal("non-borrowing class drew from the lender")
	}
	// No Lend flag: the borrower finds no donor.
	a = mk(true, false)
	a.Admit(0, 0, 1)
	if a.Admit(0, 0, 1) {
		t.Fatal("borrowed from a non-lending class")
	}
	// Borrowing never goes up the priority order: class 2 cannot take
	// class 0's tokens even when marked Borrow.
	a, err := NewAdmission([]ClassPolicy{
		{RatePerSec: 1, Burst: 10, Lend: true},
		{RatePerSec: 1, Burst: 1},
		{RatePerSec: 1, Burst: 1, Borrow: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	a.Admit(0, 2, 1)
	if a.Admit(0, 2, 1) {
		t.Fatal("low-priority class borrowed from a higher-priority one")
	}
}

func TestAdmissionOpen(t *testing.T) {
	a, err := NewAdmission(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if !a.Admit(0, 0, 1) {
			t.Fatal("open admission rejected")
		}
	}
}

func TestRetryBackoff(t *testing.T) {
	p := RetryPolicy{MaxAttempts: 4, BaseBackoffSec: 2, BackoffFactor: 3}.withDefaults()
	rng := newStream(1)
	for n, want := range map[int]float64{1: 2, 2: 6, 3: 18} {
		if got := p.backoff(n, rng); math.Abs(got-want) > 1e-9 {
			t.Errorf("backoff(%d) = %v, want %v", n, got, want)
		}
	}
	// Jitter stays within ±JitterFrac and actually varies.
	p.JitterFrac = 0.5
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := 0; i < 200; i++ {
		d := p.backoff(1, rng)
		if d < 1 || d > 3 {
			t.Fatalf("jittered backoff %v outside [1, 3]", d)
		}
		lo, hi = math.Min(lo, d), math.Max(hi, d)
	}
	if hi-lo < 0.5 {
		t.Errorf("jitter spread %v suspiciously tight", hi-lo)
	}
	if (RetryPolicy{}).enabled() || (RetryPolicy{MaxAttempts: 1}).enabled() {
		t.Error("≤1 attempts should disable retry")
	}
	if !(RetryPolicy{MaxAttempts: 2}).enabled() {
		t.Error("2 attempts should enable retry")
	}
}

// TestAdmissionScaleReadsTransitions pins what the degradation loop reads:
// the capacity and keep factors the governor's derate and shed transitions
// carried as it entered its regimes, not its live factors, which keep
// falling while the thermal buffer fills inside a regime.
func TestAdmissionScaleReadsTransitions(t *testing.T) {
	gov := testGovernor()
	gov.CapacityW = 100 // a quarter of the 400 W peak: derates down to 0.25
	gov.Reset()
	if s := admissionScale(gov); s != 1 {
		t.Fatalf("cool scale %v, want 1", s)
	}
	// A fifth of the buffer filled: derate and shedding begin.
	gov.Dissipated(0, 1, 2e3)
	capIn, keepIn := gov.Factor(1), gov.KeepFactor(1)
	if capIn >= 1 || keepIn >= 1 {
		t.Fatalf("no derate or shed entry: capacity %v, keep %v", capIn, keepIn)
	}
	want := capIn * keepIn
	if s := admissionScale(gov); s != want {
		t.Fatalf("scale %v on entry, want %v", s, want)
	}
	// Deeper inside both regimes the live factors fall; the scale holds.
	gov.Dissipated(1, 1, 6e3)
	capLive, keepLive := gov.Factor(2), gov.KeepFactor(2)
	if capLive >= capIn || keepLive >= keepIn {
		t.Fatalf("live factors did not fall: capacity %v→%v, keep %v→%v", capIn, capLive, keepIn, keepLive)
	}
	if s := admissionScale(gov); s != want {
		t.Fatalf("scale %v, want the entry product %v and not the live %v", s, want, capLive*keepLive)
	}
	// Cooling off ends both regimes and restores full admission.
	gov.Factor(1e4)
	gov.KeepFactor(1e4)
	if s := admissionScale(gov); s != 1 {
		t.Fatalf("recovered scale %v, want 1", s)
	}
	// Entering at full throttle (0.01 × 0.5) is floored.
	gov.CapacityW = 1
	gov.Dissipated(1e4, 1, 1e5)
	gov.Factor(1e4 + 1)
	gov.KeepFactor(1e4 + 1)
	if s := admissionScale(gov); s != minAdmissionScale {
		t.Fatalf("full-throttle scale %v, want the %v floor", s, minAdmissionScale)
	}
}

func TestPresetPolicies(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := PresetPolicy(name, 100)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if p.Name != name {
			t.Errorf("%s: name %q", name, p.Name)
		}
		if name == PolicyOpen {
			if len(p.Admission) != 0 || p.DeadlineShed || p.Retry.enabled() {
				t.Errorf("open policy has mechanisms enabled: %+v", p)
			}
			continue
		}
		a, err := NewAdmission(p.Admission)
		if err != nil {
			t.Fatalf("%s admission: %v", name, err)
		}
		if got := totalRatePerSec(a); math.Abs(got-100) > 1e-9 {
			t.Errorf("%s: aggregate admission %v, want 100", name, got)
		}
	}
	if _, err := PresetPolicy("bogus", 100); err == nil {
		t.Error("unknown preset accepted")
	}
	if _, err := PresetPolicy(PolicyOpen, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}

func TestPresetCampaigns(t *testing.T) {
	for _, name := range CampaignNames() {
		c, err := PresetCampaign(name, 100, 50)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == CampaignNone {
			if len(c) != 0 {
				t.Errorf("none campaign has %d faults", len(c))
			}
			continue
		}
		if len(c) == 0 {
			t.Errorf("%s: empty campaign", name)
		}
		for _, f := range c {
			if err := f.validate(); err != nil {
				t.Errorf("%s: %v", name, err)
			}
			if f.StartSec != 100 || f.EndSec != 150 {
				t.Errorf("%s: window [%v, %v), want [100, 150)", name, f.StartSec, f.EndSec)
			}
		}
	}
	if _, err := PresetCampaign("bogus", 0, 10); err == nil {
		t.Error("unknown campaign accepted")
	}
	if _, err := PresetCampaign(CampaignCombined, 0, 0); err == nil {
		t.Error("empty window accepted")
	}
}
