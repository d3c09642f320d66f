package netsim

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"spacedc/internal/isl"
	"spacedc/internal/units"
)

// bigGridScenario is a routing-bound constellation-scale run: hundreds of
// satellites under a heavy fault regime with light traffic, so stepping
// cost is dominated by routing updates rather than queue service. It is
// the workload the incremental maintainer exists for.
func bigGridScenario(seed int64, full bool) Scenario {
	return Scenario{
		Name: "big-grid",
		Topology: TopologySpec{
			Kind:    ClusterTopology,
			Sats:    2000,
			Cluster: isl.Topology{K: 8, Split: 8},
			Tech:    isl.Optical10G,
		},
		PerSat: units.Mbps / 10,
		Faults: FaultConfig{
			LinkOutage:    0.05,
			LinkMTTRSec:   10,
			EclipseOutage: true,
		},
		StepSec:       0.1,
		EpochSec:      30,
		DurationSec:   60,
		WarmupSec:     10,
		Seed:          seed,
		fullRecompute: full,
	}
}

func bigGridScenarios(full bool) []Scenario {
	scs := make([]Scenario, 4)
	for i := range scs {
		scs[i] = bigGridScenario(int64(i+1), full)
	}
	return scs
}

// BenchmarkBigGridSweep measures a fault-heavy, routing-bound sweep at
// constellation scale on both routing paths. The incremental/full-bfs
// ratio is the tentpole's speedup claim; CI runs it once (-benchtime 1x)
// as a smoke test that the big-grid workload completes on both paths.
func BenchmarkBigGridSweep(b *testing.B) {
	for _, mode := range []struct {
		name string
		full bool
	}{{"incremental", false}, {"full-bfs", true}} {
		b.Run(mode.name, func(b *testing.B) {
			scs := bigGridScenarios(mode.full)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, r := range Sweep(scs, 1) {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkMegaConstellation runs one faulted, eclipsed fabric of the
// big-grid shape at 20,000 and 50,000 satellites: the mega-storm op at the
// two ends of the constellation scale the event-driven step is for. CI
// runs it once (-benchtime 1x) as the 50k smoke.
func BenchmarkMegaConstellation(b *testing.B) {
	for _, sats := range []int{20000, 50000} {
		b.Run(fmt.Sprintf("%dk", sats/1000), func(b *testing.B) {
			sc := bigGridScenario(7, false)
			sc.Name = "mega-constellation"
			sc.Topology.Sats = sats
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(sc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestBigGridAllocsCeiling gates the allocations of one shortened big-grid
// run, the pinned 2,000-satellite shape. The count hardly depends on the
// machine: the event-driven step measured 18,818–18,820 allocations per
// run (Go 1.24.0, linux/amd64, 2026-10-19), against 38,545 for the step
// that walked every source and rescanned every node. The ceiling is that
// count plus 1%.
func TestBigGridAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	sc := bigGridScenario(1, false)
	sc.DurationSec, sc.WarmupSec = 20, 5
	const ceiling = 18820 * 1.01
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Errorf("big-grid run allocated %v times, over the ceiling of %v", allocs, ceiling)
	}
}

// TestMegaConstellationAllocsCeiling gates the allocations and the bytes
// of one shortened run of the mega-constellation smoke's shape: 20,000
// satellites for 20 s after a 5 s warm-up. The step calendar measured
// 182,433–182,434 allocations and 23,058,432–23,058,456 bytes per run at
// GOMAXPROCS 1 (Go 1.24.0, linux/amd64, 2026-10-19), against 182,432 and
// 23,705,528 for the binary-heap queues it replaced. Each ceiling is the
// higher count plus 1%.
func TestMegaConstellationAllocsCeiling(t *testing.T) {
	if raceEnabled || testing.Short() {
		t.Skip("a 20,000-satellite run; the race detector allocates on its own")
	}
	sc := bigGridScenario(7, false)
	sc.Name = "mega-constellation"
	sc.Topology.Sats = 20000
	sc.DurationSec, sc.WarmupSec = 20, 5
	const allocCeiling, byteCeiling = 182434 * 1.01, 23058456 * 1.01
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func() {
		if _, err := Run(sc); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm up, as testing.AllocsPerRun does
	const runs = 2
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		run()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f allocations, %.0f bytes per run", allocs, bytes)
	if allocs > allocCeiling {
		t.Errorf("mega-constellation run allocated %v times, over the ceiling of %v", allocs, allocCeiling)
	}
	if bytes > byteCeiling {
		t.Errorf("mega-constellation run allocated %v bytes, over the ceiling of %v", bytes, byteCeiling)
	}
}

// TestBigGridSweepBitIdentityAcrossWorkers pins the acceptance criterion
// behind the benchmark: at constellation scale the incremental sweep's
// Results are byte-identical to the full-BFS sweep's, at any worker count.
func TestBigGridSweepBitIdentityAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("constellation-scale sweep")
	}
	shorten := func(scs []Scenario) []Scenario {
		for i := range scs {
			scs[i].DurationSec = 20
			scs[i].WarmupSec = 5
		}
		return scs
	}
	ref := Sweep(shorten(bigGridScenarios(true)), 1)
	for _, workers := range []int{1, 4} {
		got := Sweep(shorten(bigGridScenarios(false)), workers)
		for i := range got {
			if got[i].Err != nil || ref[i].Err != nil {
				t.Fatalf("scenario %d errored: %v / %v", i, got[i].Err, ref[i].Err)
			}
			if got[i].Result.RouteRepairs == 0 {
				t.Fatalf("scenario %d exercised no incremental repairs", i)
			}
			if !reflect.DeepEqual(got[i].Result, ref[i].Result) {
				t.Fatalf("workers=%d scenario %d diverged from full-BFS reference:\nincremental: %+v\nfull:        %+v",
					workers, i, got[i].Result, ref[i].Result)
			}
		}
	}
}
