package pool

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"spacedc/internal/obs"
)

// Map runs fn over job IDs 0..n-1 on p without observability.
func (p *Pool) Map(n, slots int, fn func(id int) error) error {
	return p.MapObs(n, slots, nil, "", fn)
}

// collect runs an n-job Map on p that writes id*id into its own slot and
// returns the slots, the shape every pool caller relies on.
func collect(t *testing.T, p *Pool, n, slots int) []int {
	t.Helper()
	out := make([]int, n)
	err := p.Map(n, slots, func(id int) error {
		out[id] = id * id
		return nil
	})
	if err != nil {
		t.Fatalf("Map(n=%d, slots=%d): %v", n, slots, err)
	}
	return out
}

// TestMapReassemblesInIDOrder asserts every (budget, slots) combination
// yields the same ID-ordered results as a serial run — the pool must be
// invisible in the output.
func TestMapReassemblesInIDOrder(t *testing.T) {
	const n = 100
	want := collect(t, New(0), n, 1) // serial reference
	for _, budget := range []int{0, 1, 2, 8} {
		for _, slots := range []int{1, 2, 7, n, 2 * n, -1, 0} {
			got := collect(t, New(budget), n, slots)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("budget=%d slots=%d: slot %d = %d, want %d", budget, slots, i, got[i], want[i])
				}
			}
		}
	}
}

// TestMapZeroAndNegativeJobs pins the degenerate inputs: no jobs is a
// successful no-op regardless of slots.
func TestMapZeroAndNegativeJobs(t *testing.T) {
	p := New(4)
	calls := 0
	for _, n := range []int{0, -3} {
		if err := p.Map(n, 8, func(int) error { calls++; return nil }); err != nil {
			t.Fatalf("Map(n=%d): %v", n, err)
		}
	}
	if calls != 0 {
		t.Errorf("degenerate Map ran %d jobs, want 0", calls)
	}
}

// TestMapFirstErrorInIDOrder asserts the error Map surfaces is the failing
// job that comes first in ID order — independent of slots and budget, even
// though a later-ID failure may well have been observed first by the
// scheduler.
func TestMapFirstErrorInIDOrder(t *testing.T) {
	errAt := map[int]error{3: errors.New("job 3"), 7: errors.New("job 7"), 12: errors.New("job 12")}
	for _, slots := range []int{1, 4, 16} {
		err := New(8).Map(16, slots, func(id int) error {
			return errAt[id]
		})
		if err == nil || err.Error() != "job 3" {
			t.Errorf("slots=%d: Map error = %v, want the ID-order-first failure (job 3)", slots, err)
		}
	}
}

// TestMapRunsEveryJobDespiteErrors asserts a failure does not starve later
// jobs: the pool completes the whole grid and only then reports.
func TestMapRunsEveryJobDespiteErrors(t *testing.T) {
	var ran atomic.Int64
	err := New(2).Map(20, 4, func(id int) error {
		ran.Add(1)
		if id == 0 {
			return errors.New("first job fails")
		}
		return nil
	})
	if err == nil {
		t.Fatal("failure did not surface")
	}
	if got := ran.Load(); got != 20 {
		t.Errorf("pool ran %d of 20 jobs after an early failure", got)
	}
}

// TestNestedMapBudgetOneNoDeadlock is the pool-in-pool determinism suite:
// under a token budget of 1 every nested Map must still complete (the
// caller always works inline, so submission can never self-block), and the
// nested results must reassemble in ID order exactly as a fully serial
// run would produce them.
func TestNestedMapBudgetOneNoDeadlock(t *testing.T) {
	for _, budget := range []int{0, 1} {
		p := New(budget)
		const outer, inner = 6, 8
		got := make([][]int, outer)
		done := make(chan error, 1)
		go func() {
			done <- p.Map(outer, 4, func(o int) error {
				row := make([]int, inner)
				if err := p.Map(inner, 4, func(i int) error {
					row[i] = o*inner + i
					return nil
				}); err != nil {
					return err
				}
				got[o] = row
				return nil
			})
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("budget=%d: nested Map: %v", budget, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("budget=%d: nested Map deadlocked", budget)
		}
		for o := 0; o < outer; o++ {
			for i := 0; i < inner; i++ {
				if got[o][i] != o*inner+i {
					t.Fatalf("budget=%d: nested slot [%d][%d] = %d, want %d", budget, o, i, got[o][i], o*inner+i)
				}
			}
		}
	}
}

// TestNestedMapErrorOrder asserts a nested failure propagates through the
// outer Map as the outer-ID-order-first error.
func TestNestedMapErrorOrder(t *testing.T) {
	p := New(2)
	err := p.Map(5, 3, func(o int) error {
		return p.Map(4, 2, func(i int) error {
			if o >= 2 && i == 3 {
				return fmt.Errorf("outer %d inner %d", o, i)
			}
			return nil
		})
	})
	if err == nil || err.Error() != "outer 2 inner 3" {
		t.Errorf("nested error = %v, want outer-ID-order-first (outer 2 inner 3)", err)
	}
}

// TestMapObsWorkerAccounting asserts the per-slot metrics cover every job
// exactly once and live under the caller's prefix, and that slot 0 (the
// inline caller) always exists.
func TestMapObsWorkerAccounting(t *testing.T) {
	reg := obs.New(obs.WithWallClock())
	const n = 12
	if err := New(8).MapObs(n, 4, reg, "pool.test", func(int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	var runs int64
	saw0 := false
	for _, c := range reg.Snapshot().Counters {
		if len(c.Name) > 9 && c.Name[:9] == "pool.test" {
			runs += c.Value
			if c.Name == "pool.test.worker00.runs" {
				saw0 = true
			}
		}
	}
	if runs != n {
		t.Errorf("per-worker run counters total %d, want %d", runs, n)
	}
	if !saw0 {
		t.Error("slot 0 (the inline caller) recorded no metrics")
	}
}

// TestSharedPoolConcurrentMaps races two Maps on the shared pool — the
// production shape when pooled experiments nest sweeps — and checks both
// complete with correct results (run under -race in CI).
func TestSharedPoolConcurrentMaps(t *testing.T) {
	const n = 64
	a := make([]int, n)
	b := make([]int, n)
	done := make(chan error, 2)
	go func() {
		done <- Map(n, 0, func(id int) error { a[id] = id; return nil })
	}()
	go func() {
		done <- MapObs(n, runtime.NumCPU(), nil, "", func(id int) error { b[id] = -id; return nil })
	}()
	for i := 0; i < 2; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		if a[i] != i || b[i] != -i {
			t.Fatalf("concurrent shared-pool maps corrupted slot %d: %d, %d", i, a[i], b[i])
		}
	}
}
