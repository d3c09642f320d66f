package experiments

import (
	"context"
	"runtime"
	"testing"

	"spacedc/internal/optimize"
)

// TestStudySearchAllocsCeiling gates the allocations of the optimizer's
// study search, the design-search benchmark's operation: the mean over
// seeds 1000–1021 of one serial optimize.Search with OptimizeStudyConfig
// over the default space. The ceiling is the mean measured when it was
// set, plus 1%.
func TestStudySearchAllocsCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const ceiling = 8306 * 1.01
	cfg := OptimizeStudyConfig()
	cfg.Workers = 1
	space := optimize.DefaultSpace()
	search := func(seed int64) {
		cfg.Seed = seed
		if _, err := optimize.Search(context.Background(), cfg, space); err != nil {
			t.Fatal(err)
		}
	}
	search(42) // warm-up, so one-time initialisation is not counted
	const seeds = 22
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for seed := int64(1000); seed < 1000+seeds; seed++ {
		search(seed)
	}
	runtime.ReadMemStats(&m1)
	mean := float64(m1.Mallocs-m0.Mallocs) / seeds
	t.Logf("mean %.1f allocations per study search", mean)
	if mean > ceiling {
		t.Errorf("a study search allocated %.1f times on average, over the ceiling of %v", mean, ceiling)
	}
}
