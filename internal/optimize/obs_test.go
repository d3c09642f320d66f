package optimize

import (
	"context"
	"reflect"
	"testing"

	"spacedc/internal/econ"
	"spacedc/internal/obs"
)

// overCapSpace mixes 8-satellite planes with 1,200-satellite ones. A
// 1,200-satellite plane passes the structural filter but offers more than
// netsim.MaxOfferedSegments in testEval's 10 s run, so it scores
// infeasible.
func overCapSpace() Space {
	return Space{
		Planes:       []int{1},
		SatsPerPlane: []int{8, 1200},
		AltitudesKm:  []float64{550},
		Topologies:   []TopoChoice{{K: 2, Split: 1}, {K: 4, Split: 2}},
		Devices:      []int{1},
		Recoveries:   []string{econ.RecoveryNone, econ.RecoveryRetry},
	}
}

// TestObsCountersMirrorOutcome asserts that (1) a search with a registry
// returns the same Outcome as one without (observability is write-only)
// and (2) the registry holds every optimize.* counter at the value of the
// Outcome field it mirrors, and the best-objective gauge at the best
// candidate's objective. On testSpace every proposal is feasible; on
// overCapSpace some are not, which drives both searches' infeasible
// branches.
func TestObsCountersMirrorOutcome(t *testing.T) {
	for _, tc := range []struct {
		name           string
		cfg            Config
		space          Space
		wantInfeasible bool
	}{
		{"test-space", Config{Seed: 3, Budget: 24, Restarts: 3, Anneal: true, Eval: testEval()}, testSpace(), false},
		{"over-cap-load", Config{Seed: 1, Budget: 12, Restarts: 3, Eval: testEval()}, overCapSpace(), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			bare, err := Search(context.Background(), cfg, tc.space)
			if err != nil {
				t.Fatal(err)
			}
			cfg.Obs = obs.New()
			instr, err := Search(context.Background(), cfg, tc.space)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(bare, instr) {
				t.Fatalf("instrumented search diverged from bare search:\nbare:  %+v\ninstr: %+v", bare, instr)
			}
			snap := cfg.Obs.Snapshot()
			counters := map[string]int64{}
			for _, c := range snap.Counters {
				counters[c.Name] = c.Value
			}
			want := map[string]int{
				"optimize.proposals":  instr.Proposals,
				"optimize.evaluated":  instr.Evaluated,
				"optimize.cache_hits": instr.CacheHits,
				"optimize.infeasible": instr.Infeasible,
				"optimize.accepted":   instr.Accepted,
				"optimize.rejected":   instr.Rejected,
				"optimize.restarts":   instr.Restarts,
			}
			for counter, v := range want {
				if got, ok := counters[counter]; !ok || got != int64(v) {
					t.Errorf("%s = %d (registered %v), want %d (Outcome field)", counter, got, ok, v)
				}
			}
			if len(snap.Gauges) != 1 || snap.Gauges[0].Name != "optimize.best_objective" ||
				snap.Gauges[0].Value != instr.Best.Score.Objective {
				t.Errorf("gauges %+v, want only optimize.best_objective = %v", snap.Gauges, instr.Best.Score.Objective)
			}
			// testSpace's run is long enough to restart a chain.
			if instr.CacheHits == 0 || instr.Rejected == 0 || (!tc.wantInfeasible && instr.Restarts == 0) {
				t.Errorf("search too easy to exercise the tallies: %+v", want)
			}

			// Every proposal is accepted or rejected, and an infeasible
			// one is always rejected.
			infeasible, rejected := 0, 0
			for _, c := range instr.Trace {
				if !c.Score.Feasible {
					infeasible++
					if c.Accepted {
						t.Errorf("infeasible proposal %d (%s) accepted", c.Index, Key(c.Design))
					}
				}
				if !c.Accepted {
					rejected++
				}
			}
			if infeasible != instr.Infeasible || rejected != instr.Rejected {
				t.Errorf("trace has %d infeasible and %d rejected proposals, Outcome counts %d and %d",
					infeasible, rejected, instr.Infeasible, instr.Rejected)
			}
			if got := instr.Infeasible > 0; got != tc.wantInfeasible {
				t.Errorf("Infeasible = %d, want above zero: %v", instr.Infeasible, tc.wantInfeasible)
			}
			checkFeasibleWinners(t, instr)

			ex, err := Exhaustive(context.Background(), tc.cfg, tc.space)
			if err != nil {
				t.Fatal(err)
			}
			infeasible = 0
			for _, c := range ex.Trace {
				if !c.Score.Feasible {
					infeasible++
				}
			}
			if infeasible != ex.Infeasible || (ex.Infeasible > 0) != tc.wantInfeasible {
				t.Errorf("Exhaustive counts %d infeasible of %d designs, trace has %d; want above zero: %v",
					ex.Infeasible, len(ex.Trace), infeasible, tc.wantInfeasible)
			}
			checkFeasibleWinners(t, ex)
		})
	}
}

// checkFeasibleWinners fails when an infeasible candidate is the best
// design or on the Pareto front.
func checkFeasibleWinners(t *testing.T, out *Outcome) {
	t.Helper()
	if !out.Best.Score.Feasible {
		t.Errorf("best candidate %s is infeasible: %s", Key(out.Best.Design), out.Best.Score.Reason)
	}
	for _, c := range out.Pareto {
		if !c.Score.Feasible {
			t.Errorf("Pareto candidate %s is infeasible: %s", Key(c.Design), c.Score.Reason)
		}
	}
}
