package experiments

import (
	"context"
	"strings"
	"testing"

	"spacedc/internal/obs"
	"spacedc/internal/report"
)

// renderAll concatenates every table's rendered text, the byte stream the
// bit-identity tests compare across execution modes.
func renderAll(t *testing.T, tables []report.Table) string {
	t.Helper()
	var sb strings.Builder
	for _, tb := range tables {
		sb.WriteString(tb.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// poolCounters extracts the two sweep-level obs counters the pool must
// keep identical to the serial path.
func poolCounters(reg *obs.Registry) (completed, tables int64) {
	for _, c := range reg.Snapshot().Counters {
		switch c.Name {
		case "experiments.completed":
			completed = c.Value
		case "experiments.tables":
			tables = c.Value
		}
	}
	return completed, tables
}

// TestRunAllBitIdentity asserts the worker pool is invisible in the
// output: the serial (one-worker) sweep and an eight-worker pool must
// produce byte-identical rendered tables, and the sweep-level obs
// counters must agree across both modes. The grid experiments
// (ext-netsim, ext-lossy, table4) decompose into sub-jobs on the shared
// pool, so both modes also exercise nested submission — experiment
// workers and their sub-jobs interleaving on one token budget. Run with
// -count=2 in CI to catch map-order nondeterminism hiding behind a lucky
// schedule.
func TestRunAllBitIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment twice; skipped in -short")
	}
	serialReg := obs.New(obs.WithWallClock())
	serial, err := RunWorkers(context.Background(), serialReg, All, 1)
	if err != nil {
		t.Fatal(err)
	}
	serialText := renderAll(t, serial)

	for _, workers := range []int{8} {
		reg := obs.New(obs.WithWallClock())
		pooled, err := RunWorkers(context.Background(), reg, All, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(pooled) != len(serial) {
			t.Fatalf("workers=%d returned %d tables, serial %d", workers, len(pooled), len(serial))
		}
		if text := renderAll(t, pooled); text != serialText {
			for i := range serial {
				if pooled[i].String() != serial[i].String() {
					t.Errorf("workers=%d: table %d (%s) diverges from serial", workers, i, serial[i].ID)
				}
			}
			t.Fatalf("workers=%d output is not byte-identical to the serial sweep", workers)
		}
		sc, st := poolCounters(serialReg)
		pc, pt := poolCounters(reg)
		if sc != pc || st != pt {
			t.Errorf("workers=%d counters (completed=%d tables=%d) differ from serial (completed=%d tables=%d)",
				workers, pc, pt, sc, st)
		}
		if pc != int64(len(IDs())) {
			t.Errorf("workers=%d completed %d experiments, want %d", workers, pc, len(IDs()))
		}
	}
}

// TestNestedGridExperimentsDeterministic runs just the experiments that
// fan sub-jobs into the shared pool and asserts each renders identically
// standalone (sub-jobs only) and inside a pooled sweep (sub-jobs nested
// under experiment workers): scheduling depth must never reach the rows.
func TestNestedGridExperimentsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the grid experiments twice; skipped in -short")
	}
	gridIDs := []string{"ext-lossy", "ext-netsim", "table4"}
	standalone := make(map[string]string, len(gridIDs))
	for _, id := range gridIDs {
		tables, err := RunWorkers(context.Background(), nil, id, 1)
		if err != nil {
			t.Fatalf("%s standalone: %v", id, err)
		}
		standalone[id] = renderAll(t, tables)
	}
	all, err := RunWorkers(context.Background(), nil, All, 8)
	if err != nil {
		t.Fatal(err)
	}
	byID := make(map[string]string)
	for _, tb := range all {
		byID[tb.ID] = tb.String() + "\n"
	}
	for _, id := range gridIDs {
		if byID[id] != standalone[id] {
			t.Errorf("%s rendered differently nested under the pooled sweep than standalone", id)
		}
	}
}

// TestRunAllWorkersError asserts pooled error reporting is deterministic:
// with a transiently registered failing experiment, every worker count
// surfaces the failure of the ID-order-first failing experiment.
func TestRunAllWorkersError(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
	const failID = "aaa-test-failure" // sorts before every real experiment
	register(failID, "transient failing test experiment", func() ([]report.Table, error) {
		return nil, errTestFailure
	})
	defer func() { delete(registry, failID) }()
	for _, workers := range []int{1, 4} {
		_, err := RunWorkers(context.Background(), nil, All, workers)
		if err == nil {
			t.Fatalf("workers=%d: failing experiment did not surface", workers)
		}
		if !strings.Contains(err.Error(), failID) || !strings.Contains(err.Error(), errTestFailure.Error()) {
			t.Errorf("workers=%d error = %v, want the ID-order-first failure (%s)", workers, err, failID)
		}
	}
}

// errTestFailure is the sentinel the transient failing experiment returns.
var errTestFailure = errInjected{}

type errInjected struct{}

func (errInjected) Error() string { return "injected test failure" }
