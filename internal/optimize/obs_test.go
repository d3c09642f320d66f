package optimize

import (
	"context"
	"reflect"
	"testing"

	"spacedc/internal/obs"
)

// TestObsCountersMirrorOutcome asserts that (1) a search with a registry
// returns the same Outcome as one without (observability is write-only)
// and (2) the registry holds every optimize.* counter at the value of the
// Outcome field it mirrors, and the best-objective gauge at the best
// candidate's objective.
func TestObsCountersMirrorOutcome(t *testing.T) {
	cfg := Config{Seed: 3, Budget: 24, Restarts: 3, Anneal: true, Eval: testEval()}
	bare, err := Search(context.Background(), cfg, testSpace())
	if err != nil {
		t.Fatal(err)
	}
	cfg.Obs = obs.New()
	instr, err := Search(context.Background(), cfg, testSpace())
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
	// Infeasible stays zero here (proposals pass the structural filter
	// first); the registration check above still covers its counter.
	if instr.CacheHits == 0 || instr.Rejected == 0 || instr.Restarts == 0 {
		t.Errorf("search too easy to exercise the tallies: %+v", want)
	}
}
