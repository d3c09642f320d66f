package optimize

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"spacedc/internal/econ"
	"spacedc/internal/netsim"
)

// shellSpace is DefaultSpace stacked one to three shells deep under both
// inter-shell rules.
func shellSpace() Space {
	s := DefaultSpace()
	s.ShellCounts = []int{1, 2, 3}
	s.InterShells = []string{econ.InterShellAligned, econ.InterShellNearest}
	return s
}

// validDesigns returns every structurally valid design of space, in
// Exhaustive's axis order.
func validDesigns(space Space, ev *Evaluator) []econ.Design {
	dims := space.dims()
	var out []econ.Design
	for n := range space.Size() {
		var v [axes]int
		for a, r := axes-1, n; a >= 0; a-- {
			v[a], r = r%dims[a], r/dims[a]
		}
		if d := space.design(v); ev.structuralOK(d) {
			out = append(out, d)
		}
	}
	return out
}

// TestNetworkKeyCoversSpec checks the network key against the per-plane
// spec it stands for, over every structurally valid design of DefaultSpace
// and of shellSpace. Designs with equal keys must have equal specs, or the
// memo would hand one design another's network. The converse keeps the
// memo from running netsim more often than the distinct specs need: equal
// specs give equal keys, also where a design spells out the single shell
// or the aligned rule. So Exhaustive over DefaultSpace runs netsim 57
// times for its 2,736 designs. Under a link outage the key carries the
// seed, and every design keeps its own run.
func TestNetworkKeyCoversSpec(t *testing.T) {
	for _, tc := range []struct {
		name           string
		space          Space
		designs, specs int
	}{
		{"default", DefaultSpace(), 2736, 57},
		{"shells", shellSpace(), 14112, 237},
	} {
		ev, err := NewEvaluator(EvalConfig{}, tc.space)
		if err != nil {
			t.Fatal(err)
		}
		outage, err := NewEvaluator(EvalConfig{LinkOutage: 0.05}, tc.space)
		if err != nil {
			t.Fatal(err)
		}
		specOf := make(map[netKey]netsim.TopologySpec)
		keyOf := make(map[string]netKey) // by the spec's %#v rendering
		outageKeys := make(map[netKey]bool)
		designs := make(map[string]bool)
		check := func(d econ.Design) {
			spec, err := ev.specFor(d)
			if err != nil {
				t.Fatalf("%s: %s: %v", tc.name, Key(d), err)
			}
			k := ev.netKeyFor(d)
			if prev, ok := specOf[k]; ok && !reflect.DeepEqual(prev, spec) {
				t.Fatalf("%s: %s shares key %+v with a different spec:\n%+v\n%+v", tc.name, Key(d), k, prev, spec)
			}
			s := fmt.Sprintf("%#v", spec)
			if prev, ok := keyOf[s]; ok && prev != k {
				t.Errorf("%s: %s has key %+v, another design of the same spec %+v", tc.name, Key(d), k, prev)
			}
			specOf[k], keyOf[s] = spec, k
			outageKeys[outage.netKeyFor(d)] = true
			designs[Key(d)] = true
		}
		valid := validDesigns(tc.space, ev)
		for _, d := range valid {
			check(d)
			// Spellings of the same network: the single shell named, any
			// rule at one shell, and the aligned rule named on a stack.
			if d.Shells <= 1 {
				for _, inter := range []string{"", econ.InterShellAligned, econ.InterShellNearest} {
					for _, shells := range []int{0, 1} {
						e := d
						e.Shells, e.InterShell = shells, inter
						check(e)
					}
				}
			} else if d.InterShell == econ.InterShellAligned {
				e := d
				e.InterShell = ""
				check(e)
			}
		}
		if len(valid) != tc.designs || len(specOf) != tc.specs || len(keyOf) != tc.specs {
			t.Errorf("%s: %d valid designs, %d keys, %d specs; want %d designs and %d of each",
				tc.name, len(valid), len(specOf), len(keyOf), tc.designs, tc.specs)
		}
		if len(outageKeys) != len(designs) {
			t.Errorf("%s: %d outage keys for %d distinct designs", tc.name, len(outageKeys), len(designs))
		}
	}
}

// memoSpace is a sub-space whose designs share network halves across
// plane counts and devices, and whose topologies differ in K alone and in
// Split alone, one and two shells deep under both rules.
func memoSpace() Space {
	return Space{
		Planes:       []int{1, 3},
		SatsPerPlane: []int{8, 16},
		AltitudesKm:  []float64{550},
		Topologies:   []TopoChoice{{K: 2, Split: 1}, {K: 2, Split: 2}, {K: 4, Split: 1}, {K: 4, Split: 2}, {GEOSinks: 3}},
		Devices:      []int{1, 2},
		Recoveries:   []string{econ.RecoveryRetry},
		ShellCounts:  []int{1, 2},
		InterShells:  []string{econ.InterShellAligned, econ.InterShellNearest},
	}
}

// sameScore reports whether two scores agree bit for bit.
func sameScore(a, b Score) bool {
	x := []float64{a.NetworkMbps, a.ComputeRatio, a.GoodputMbps, a.CostPerHour, a.Objective}
	y := []float64{b.NetworkMbps, b.ComputeRatio, b.GoodputMbps, b.CostPerHour, b.Objective}
	for i := range x {
		if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
			return false
		}
	}
	return a.Feasible == b.Feasible && a.Reason == b.Reason
}

// TestNetworkMemoMatchesFreshEvaluator scores every valid design of
// memoSpace through one Evaluator in shuffled order, so memo entries are
// filled by arbitrary designs, and through Exhaustive at 1 and 8 workers,
// and requires every Score to equal, bit for bit, the one a fresh
// Evaluator gives the design alone. It does so without faults, under a
// link outage (whose seed the key must carry), and at a rate over
// netsim's segment cap (whose *DesignError the memo shares).
func TestNetworkMemoMatchesFreshEvaluator(t *testing.T) {
	space := memoSpace()
	overCap := testEval()
	overCap.PerSat = 1e13
	withOutage := testEval()
	withOutage.LinkOutage = 0.05
	for _, tc := range []struct {
		name       string
		cfg        EvalConfig
		exhaustive bool
	}{
		{"no faults", testEval(), true},
		{"link outage", withOutage, true},
		{"over the segment cap", overCap, false},
	} {
		ev, err := NewEvaluator(tc.cfg, space)
		if err != nil {
			t.Fatal(err)
		}
		valid := validDesigns(space, ev)
		fresh := make(map[string]Score)
		for _, d := range valid {
			alone, err := NewEvaluator(tc.cfg, space)
			if err != nil {
				t.Fatal(err)
			}
			if fresh[Key(d)], err = alone.Evaluate(d); err != nil {
				t.Fatal(err)
			}
		}
		rand.New(rand.NewSource(1)).Shuffle(len(valid), func(i, j int) { valid[i], valid[j] = valid[j], valid[i] })
		keys := make(map[netKey]bool)
		for _, d := range valid {
			s, err := ev.Evaluate(d)
			if err != nil {
				t.Fatal(err)
			}
			if !sameScore(s, fresh[Key(d)]) {
				t.Errorf("%s: %s scored %+v through the memo, %+v alone", tc.name, Key(d), s, fresh[Key(d)])
			}
			keys[ev.netKeyFor(d)] = true
		}
		if len(ev.net) != len(keys) {
			t.Errorf("%s: %d memo entries for %d network keys", tc.name, len(ev.net), len(keys))
		}
		if !tc.exhaustive {
			continue
		}
		for _, workers := range []int{1, 8} {
			out, err := Exhaustive(context.Background(), Config{Workers: workers, Eval: tc.cfg}, space)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range out.Trace {
				if !sameScore(c.Score, fresh[Key(c.Design)]) {
					t.Errorf("%s: Exhaustive at %d workers scored %s %+v, %+v alone",
						tc.name, workers, Key(c.Design), c.Score, fresh[Key(c.Design)])
				}
			}
		}
	}
}
