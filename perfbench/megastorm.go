package main

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"

	"spacedc/internal/isl"
	"spacedc/internal/netsim"
	"spacedc/internal/units"
)

// megaStormSeeds is how many distinct seeds mega-storm's op list runs; the
// list then repeats its first seed, whose Result must be reflect.DeepEqual
// to the first op's.
const megaStormSeeds = 24

// megaStormPassSec is one pass's nominal seconds on the 2-vCPU machine the
// benchmark was sized on, so a 30 s run times each op twice.
const megaStormPassSec = 13

// megaStormSats is the fabric size, the low end of the 20k–50k range the
// constellation-scale netsim work targets.
const megaStormSats = 20000

// mega-storm: one op is one netsim.Run of a 20k-satellite cluster fabric in
// the BenchmarkBigGridSweep shape (K=8, split 8, optical, 5% link outage,
// eclipse, light traffic) with a new seed per op. It is bound by routing,
// faults and eclipse with almost no link service — netsim used the other
// way round from design-search.
func megaStormScenario(seed int64) netsim.Scenario {
	return netsim.Scenario{
		Name: "mega-storm",
		Topology: netsim.TopologySpec{
			Kind:    netsim.ClusterTopology,
			Sats:    megaStormSats,
			Cluster: isl.Topology{K: 8, Split: 8},
			Tech:    isl.Optical10G,
		},
		PerSat:      units.Mbps / 10,
		Faults:      netsim.FaultConfig{LinkOutage: 0.05, LinkMTTRSec: 10, EclipseOutage: true},
		StepSec:     0.1,
		EpochSec:    30,
		DurationSec: 60,
		WarmupSec:   10,
		Seed:        seed,
	}
}

// megaStormOp returns op i's scenario: megaStormSeeds distinct seeds, then
// the first one again.
func megaStormOp(seed int64, i int) netsim.Scenario {
	return megaStormScenario(derive(seed, i%megaStormSeeds))
}

func setupMegaStorm() (any, error) {
	// Warm-up op with a seed outside every op list; the timed ops carry the
	// output checks.
	_, err := netsim.Run(megaStormScenario(0))
	return nil, err
}

// stormChecker is mega-storm's output check: every storm must have faulted
// links and repaired routes, and the repeat of the first seed must return
// the first op's Result.
type stormChecker struct{ first *netsim.Result }

func (c *stormChecker) check(i int, res netsim.Result) error {
	if res.RouteRepairs <= 0 || res.FaultEvents <= 0 {
		return fmt.Errorf("route repairs %d, fault events %d: want both > 0", res.RouteRepairs, res.FaultEvents)
	}
	switch {
	case i == 0 && c.first == nil:
		c.first = &res
	case i == megaStormSeeds && c.first != nil && !reflect.DeepEqual(res, *c.first):
		return errors.New("repeated seed returned a different Result")
	}
	return nil
}

func runMegaStorm(_ any, seed int64, seconds float64) (*report, error) {
	rep := &report{correct: true}
	var chk stormChecker
	f := newFloors(megaStormSeeds + 1)
	var alloc, quality, passSecs []float64
	for pass := 0; pass < passes(seconds, megaStormPassSec, 1); pass++ {
		secs := 0.0
		for i := 0; i <= megaStormSeeds; i++ {
			sc := megaStormOp(seed, i)
			var res netsim.Result
			var err error
			s := measure(true, pass == 0, func() { res, err = netsim.Run(sc) })
			rep.attempted++
			f.add(i, s.ms)
			secs += s.ms / 1e3
			if pass == 0 {
				alloc = append(alloc, mb(s.allocB))
			}
			if err == nil {
				if pass == 0 && i < megaStormSeeds {
					quality = append(quality, res.DeliveryRatio)
				}
				err = chk.check(i, res)
			}
			if err != nil {
				rep.failed++
				rep.note("run %d: %v", i, err)
			}
		}
		passSecs = append(passSecs, secs)
	}
	return rep, rep.endToEnd(f, all, megaStormSeeds+1, passSecs, alloc, mean(quality))
}

func traceMegaStorm(_ any, seed int64, seconds float64, tr *tracer) (*report, error) {
	rep := &report{correct: true}
	var chk stormChecker
	var untraced []float64
	var runs netsimRuns
	replayFor(megaStormSeeds+1, seconds, func(i, pass int) {
		op := pass*(megaStormSeeds+1) + i
		sc := megaStormOp(seed, i)
		plain := func() error {
			var err error
			untraced = append(untraced, measure(true, false, func() { _, err = netsim.Run(sc) }).ms)
			return err
		}
		traced := func() error {
			runtime.GC()
			res, err := runs.run(tr, -1, op, sc)
			if err != nil {
				return err
			}
			return chk.check(i, res)
		}
		if err := plainAndTraced(op, plain, traced); err != nil {
			rep.failed++
			rep.note("run %d: %v", i, err)
		}
		rep.attempted++
	})
	return rep, rep.layers(runs.metrics(tr), map[string]float64{
		"trace.overhead_ratio": median(tr.ms("netsim.run")) / median(untraced),
		"trace.coverage":       tr.coverage(),
	})
}
