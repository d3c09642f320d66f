package optimize

import (
	"context"
	"sort"
	"strings"
	"testing"

	"spacedc/internal/econ"
)

// testSpace is the small fixed design space the determinism and
// differential suites search: 216 combinations.
func testSpace() Space {
	return Space{
		Planes:       []int{1, 2},
		SatsPerPlane: []int{8, 12, 16},
		AltitudesKm:  []float64{550, 800},
		Topologies:   []TopoChoice{{K: 2, Split: 1}, {K: 4, Split: 2}, {GEOSinks: 3}},
		Devices:      []int{1, 2},
		Recoveries:   []string{econ.RecoveryNone, econ.RecoveryRetry, econ.RecoveryTMR},
	}
}

// testEval shortens the evaluation sims so the full search suite stays
// inside a few seconds.
func testEval() EvalConfig {
	return EvalConfig{
		NetDurationSec:     10,
		NetStepSec:         0.5,
		NetEpochSec:        5,
		ComputeDurationSec: 600,
	}
}

// renderAll flattens an outcome to the byte artifact CI compares.
func renderAll(t *testing.T, out *Outcome) string {
	t.Helper()
	var b strings.Builder
	for _, tb := range Tables(out) {
		if err := tb.Render(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestOptimizeBitIdentity runs the full search serially and with an
// 8-wide fan-out and requires byte-identical traces and final tables —
// the worker count must never leak into proposals, acceptance, or
// rendering. CI runs this under -race with -count=2.
func TestOptimizeBitIdentity(t *testing.T) {
	base := Config{Seed: 42, Budget: 24, Restarts: 3, Anneal: true, Eval: testEval()}
	outputs := make([]string, 0, 2)
	for _, workers := range []int{1, 8} {
		cfg := base
		cfg.Workers = workers
		out, err := Search(context.Background(), cfg, testSpace())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if out.Proposals != base.Budget {
			t.Fatalf("workers=%d: %d proposals, want the full %d budget", workers, out.Proposals, base.Budget)
		}
		outputs = append(outputs, renderAll(t, out))
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("search output differs between workers=1 and workers=8:\n--- w1 ---\n%s\n--- w8 ---\n%s",
			outputs[0], outputs[1])
	}
}

// TestRandomAndExhaustiveBitIdentity extends the worker-independence
// contract to the two reference searchers.
func TestRandomAndExhaustiveBitIdentity(t *testing.T) {
	sub := testSpace()
	sub.SatsPerPlane = []int{8, 16}
	sub.AltitudesKm = []float64{550}
	sub.Devices = []int{1}
	for name, run := range map[string]func(Config) (*Outcome, error){
		"random": func(cfg Config) (*Outcome, error) {
			return RandomSearch(context.Background(), cfg, sub)
		},
		"exhaustive": func(cfg Config) (*Outcome, error) {
			return Exhaustive(context.Background(), cfg, sub)
		},
	} {
		cfg := Config{Seed: 7, Budget: 12, Eval: testEval()}
		cfg.Workers = 1
		a, err := run(cfg)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		cfg.Workers = 8
		b, err := run(cfg)
		if err != nil {
			t.Fatalf("%s parallel: %v", name, err)
		}
		if renderAll(t, a) != renderAll(t, b) {
			t.Fatalf("%s output differs between worker counts", name)
		}
	}
}

// TestHeuristicBeatsRandomSweep is the equal-budget differential: on the
// fixed test space the heuristic must (a) reach the exhaustive optimum of
// a seeded product subspace, and (b) beat the median best of five
// pure-random sweeps with the same proposal budget — the guard against
// the search degenerating into random sampling.
func TestHeuristicBeatsRandomSweep(t *testing.T) {
	space := testSpace()
	const budget = 48

	heur, err := Search(context.Background(), Config{Seed: 42, Budget: budget, Restarts: 4, Anneal: true, Eval: testEval()}, space)
	if err != nil {
		t.Fatal(err)
	}

	// Seeded product subspace: half of each of the two largest axes.
	sub := space
	sub.SatsPerPlane = []int{8, 16}
	sub.AltitudesKm = []float64{550}
	sub.Devices = []int{1, 2}
	sub.Recoveries = []string{econ.RecoveryNone, econ.RecoveryRetry}
	ex, err := Exhaustive(context.Background(), Config{Eval: testEval()}, sub)
	if err != nil {
		t.Fatal(err)
	}
	if heur.Best.Score.Objective < ex.Best.Score.Objective {
		t.Errorf("heuristic best %.6f below exhaustive subspace best %.6f (%s)",
			heur.Best.Score.Objective, ex.Best.Score.Objective, Key(ex.Best.Design))
	}

	var randBests []float64
	for seed := int64(1); seed <= 5; seed++ {
		r, err := RandomSearch(context.Background(), Config{Seed: seed, Budget: budget, Eval: testEval()}, space)
		if err != nil {
			t.Fatal(err)
		}
		randBests = append(randBests, r.Best.Score.Objective)
	}
	sort.Float64s(randBests)
	median := randBests[len(randBests)/2]
	if !(heur.Best.Score.Objective > median) {
		t.Errorf("heuristic best %.6f not above random-sweep median %.6f (bests %v)",
			heur.Best.Score.Objective, median, randBests)
	}
	t.Logf("heuristic %.6f | exhaustive-sub %.6f | random median %.6f",
		heur.Best.Score.Objective, ex.Best.Score.Objective, median)
}

// TestSearchRejectsDegenerateSpace asserts a space with no valid designs
// errors instead of looping or scoring nonsense.
func TestSearchRejectsDegenerateSpace(t *testing.T) {
	bad := testSpace()
	bad.SatsPerPlane = []int{1}                     // can't populate any cluster fabric
	bad.Topologies = []TopoChoice{{K: 4, Split: 2}} // and no GEO escape hatch
	if _, err := Search(context.Background(), Config{Budget: 8, Eval: testEval()}, bad); err == nil {
		t.Fatal("degenerate space searched without error")
	}
	empty := testSpace()
	empty.Recoveries = nil
	if _, err := Search(context.Background(), Config{Budget: 8, Eval: testEval()}, empty); err == nil {
		t.Fatal("empty-axis space accepted")
	}
}

// TestSearchHonorsContext asserts a cancelled context aborts the search
// with the context's error.
func TestSearchHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Search(ctx, Config{Budget: 8, Eval: testEval()}, testSpace()); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestScoresFinite asserts every trace entry of a search is JSON-safe:
// finite scores, infeasible candidates scored zero with a reason.
func TestScoresFinite(t *testing.T) {
	out, err := Search(context.Background(), Config{Seed: 9, Budget: 16, Eval: testEval()}, testSpace())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range out.Trace {
		s := c.Score
		for _, v := range []float64{s.NetworkMbps, s.ComputeRatio, s.GoodputMbps, s.CostPerHour, s.Objective} {
			if v != v || v > 1e308 || v < -1e308 {
				t.Fatalf("non-finite score field in %+v", c)
			}
		}
		if !s.Feasible && (s.Objective != 0 || s.Reason == "") {
			t.Fatalf("infeasible candidate without zero objective + reason: %+v", c)
		}
	}
}

// TestOverCapLoadScoresInfeasible asserts a candidate whose netsim run
// would offer more than netsim.MaxOfferedSegments is scored infeasible
// with a reason, the way a structural rejection is, instead of failing
// the evaluation (and with it the whole search).
func TestOverCapLoadScoresInfeasible(t *testing.T) {
	cfg := testEval()
	cfg.PerSat = 1e13 // 16 satellites × 10 s offer 1.6e9 one-megabit segments
	ev, err := NewEvaluator(cfg, testSpace())
	if err != nil {
		t.Fatal(err)
	}
	d := econ.Design{Planes: 1, SatsPerPlane: 16, AltitudeKm: 550, K: 2, Split: 1, DevicesPerSuDC: 1, Recovery: econ.RecoveryNone}
	s, err := ev.Evaluate(d)
	if err != nil {
		t.Fatalf("over-cap candidate failed the evaluation: %v", err)
	}
	if s.Feasible || s.Objective != 0 || !strings.Contains(s.Reason, "load") {
		t.Fatalf("over-cap candidate scored %+v, want infeasible with a load reason", s)
	}
}
