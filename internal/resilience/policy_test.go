package resilience

import (
	"math"
	"math/rand/v2"
	"testing"

	"spacedc/internal/sched"
)

// exec builds a BatchExec over a 2 s / 200 J batch with the given hazard.
// A nil hazard leaves Rng nil too, so any accidental draw panics — that is
// the zero-hazard passthrough contract under test.
func exec(hazard func(float64) float64) sched.BatchExec {
	e := sched.BatchExec{
		Start:         100,
		BaseSecs:      2,
		BaseJoules:    200,
		Hazard:        hazard,
		ResetFraction: 0,
		ResetMTTRSec:  30,
	}
	if hazard != nil {
		e.Rng = rand.New(rand.NewPCG(1, 1))
	}
	return e
}

// scriptedSource is a rand.Source that returns its values in order and
// panics past the last one, so a test names every draw a policy takes.
type scriptedSource []uint64

func (s *scriptedSource) Uint64() uint64 {
	v := (*s)[0]
	*s = (*s)[1:]
	return v
}

// always upsets: the hazard is so high that P(clean pass) ≈ e^-2000.
func certainUpset(float64) float64 { return 1000 }

// TestZeroHazardPassthrough: every policy must return the fault-free
// operating point untouched, without consuming randomness, when the hazard
// at launch is zero.
func TestZeroHazardPassthrough(t *testing.T) {
	policies := []sched.RecoveryPolicy{
		Retry{},
		Checkpoint{},
		Checkpoint{CheckpointSec: 1, RestartSec: 1},
		Replicated{N: 2},
		Replicated{N: 3},
		Replicated{N: 5},
	}
	for _, pol := range policies {
		o := pol.Execute(exec(nil)) // nil Rng: a draw would panic
		if o.Secs != 2 || o.Joules != 200 || !o.Good || o.Upsets != 0 || o.DownSec != 0 {
			t.Errorf("%#v: zero-hazard outcome perturbed: %+v", pol, o)
		}
	}
}

func TestRetryExhaustsAttempts(t *testing.T) {
	o := Retry{}.Execute(exec(certainUpset))
	if o.Good {
		t.Fatal("certain upsets should exhaust retries")
	}
	if o.Upsets != 3 {
		t.Errorf("attempts = %d upsets, want 3", o.Upsets)
	}
	// 3 passes of 2 s plus backoffs 1 s + 2 s.
	if math.Abs(o.Secs-(3*2+1+2)) > 1e-9 {
		t.Errorf("occupancy %v, want 9 (3 passes + 1+2 backoff)", o.Secs)
	}
	if math.Abs(o.Joules-3*200) > 1e-9 {
		t.Errorf("energy %v, want 3 full passes", o.Joules)
	}
}

func TestRetryRecoversWhenHazardClears(t *testing.T) {
	// Hazard hot at launch, gone by the retry (after the 1 s backoff).
	gated := func(tm float64) float64 {
		if tm < 102.5 {
			return 1000
		}
		return 0
	}
	o := Retry{}.Execute(exec(gated))
	if !o.Good {
		t.Fatal("retry should succeed once the hazard clears")
	}
	if o.Upsets != 1 {
		t.Errorf("upsets = %d, want 1 (first pass only)", o.Upsets)
	}
	if o.Joules <= 200 {
		t.Errorf("energy %v should exceed one pass", o.Joules)
	}
}

func TestYoungDalyInterval(t *testing.T) {
	if got := YoungDalyIntervalSec(1, 50); math.Abs(got-10) > 1e-9 {
		t.Errorf("√(2·1·50) = %v, want 10", got)
	}
	for name, got := range map[string]float64{
		"zero cost":     YoungDalyIntervalSec(0, 50),
		"zero mtbf":     YoungDalyIntervalSec(1, 0),
		"infinite mtbf": YoungDalyIntervalSec(1, math.Inf(1)),
		"NaN cost":      YoungDalyIntervalSec(math.NaN(), 50),
	} {
		if !math.IsInf(got, 1) {
			t.Errorf("%s: interval %v, want +Inf (never checkpoint)", name, got)
		}
	}
}

func TestCheckpointRecovers(t *testing.T) {
	// A hazard of 0.8/s at launch sets the Young/Daly interval to
	// √(2·0.1/0.8) = 0.5 s. The source's one value, 0, makes the first
	// exponential draw 0: an upset at the start of the first segment (the
	// split is 0, so the upset takes no second draw). The hazard clears
	// before the redo, so only that segment is redone from the checkpoint
	// instead of the whole batch, and a further draw would panic.
	gated := func(tm float64) float64 {
		if tm < 100.6 {
			return 0.8
		}
		return 0
	}
	e := exec(gated)
	e.Rng = rand.New(&scriptedSource{0})
	c := Checkpoint{CheckpointSec: 0.1, RestartSec: 0.1}
	o := c.Execute(e)
	if !o.Good {
		t.Fatal("checkpointing should recover the batch")
	}
	if o.Upsets == 0 {
		t.Fatal("gated hazard produced no upsets — not exercising recovery")
	}
	// Overheads: > one clean pass, < the 2 full redos retry would pay.
	if o.Joules <= 200 || o.Joules >= 400 {
		t.Errorf("energy %v J outside (one pass, two passes)", o.Joules)
	}
	if o.Secs <= 2 {
		t.Errorf("occupancy %v should exceed the clean pass", o.Secs)
	}
}

func TestCheckpointGivesUpAtMaxRedos(t *testing.T) {
	c := Checkpoint{CheckpointSec: 0.1}
	o := c.Execute(exec(certainUpset))
	if o.Good {
		t.Fatal("certain upsets should exhaust the redo budget")
	}
	if o.Upsets != checkpointMaxRedos+1 { // initial try + every redo of the first segment
		t.Errorf("upsets = %d, want %d (1 + checkpointMaxRedos)", o.Upsets, checkpointMaxRedos+1)
	}
}

func TestTMRMasksSilentCorruption(t *testing.T) {
	// Silent upsets on every replica: frame-granularity voting still wins
	// because no replica loses its output.
	o := Replicated{N: 3}.Execute(exec(certainUpset))
	if !o.Good {
		t.Fatal("TMR should mask silent corruption")
	}
	if o.Upsets != 3 {
		t.Errorf("upsets = %d, want one per replica", o.Upsets)
	}
	if math.Abs(o.Joules-3*200) > 1e-9 {
		t.Errorf("energy %v, want exactly 3 replicas", o.Joules)
	}
	if o.Secs < 3*2 {
		t.Errorf("occupancy %v below 3 serialized replicas", o.Secs)
	}
}

func TestTMRLosesToRepeatedResets(t *testing.T) {
	e := exec(certainUpset)
	e.ResetFraction = 1 // every upset reboots: each replica dies after its redo
	o := Replicated{N: 3}.Execute(e)
	if o.Good {
		t.Fatal("three dead replicas cannot vote")
	}
	if o.Resets != 6 { // 3 replicas × (reset + failed redo)
		t.Errorf("resets = %d, want 6", o.Resets)
	}
	if math.Abs(o.DownSec-6*30) > 1e-9 {
		t.Errorf("downtime %v, want 6 reboots", o.DownSec)
	}
}

func TestDMRDetectsButCannotMask(t *testing.T) {
	o := Replicated{N: 2}.Execute(exec(certainUpset))
	if o.Good {
		t.Fatal("persistent divergence should fail DMR")
	}
	if o.Upsets != 2*dmrRounds { // every round × 2 replicas
		t.Errorf("upsets = %d, want %d", o.Upsets, 2*dmrRounds)
	}
	// Once the hazard clears mid-flight, the re-executed pair agrees.
	gated := func(tm float64) float64 {
		if tm < 102.5 {
			return 1000
		}
		return 0
	}
	o = Replicated{N: 2}.Execute(exec(gated))
	if !o.Good {
		t.Error("DMR should succeed on the clean re-execution")
	}
}
