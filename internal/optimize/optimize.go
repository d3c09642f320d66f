// Package optimize is the constellation design-space optimizer: a
// deterministic heuristic search — seeded random restarts plus local
// neighborhood moves with optional simulated-annealing acceptance — over
// planes, satellites per plane, altitude, ISL topology (ring / k-list /
// splitting / GEO star), SµDC sizing, and recovery policy, maximizing
// goodput per dollar. Candidates are evaluated through the existing
// simulators (netsim for the network, resilience/sched for compute
// survivability) against the internal/econ cost model, and fan out over
// internal/pool.
//
// Determinism contract: every random draw for candidate i comes from its
// own PCG stream, built by rngFor from (seed, i), proposals are generated
// and accepted serially in index order, and only the pure evaluation
// function runs in parallel — so a search is bit-reproducible at any
// worker count, which TestOptimizeBitIdentity locks down under -race.
package optimize

import (
	"context"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"spacedc/internal/econ"
	"spacedc/internal/obs"
	"spacedc/internal/pool"
)

// Epoch anchors the evaluation orbits (shared with the experiment suite's
// epoch so optimizer scores line up with the resilience studies).
var Epoch = time.Date(2026, 3, 20, 0, 0, 0, 0, time.UTC)

// TopoChoice is one point on the ISL-topology axis: a cluster fabric
// (even K ≥ 2 receiver fan-in, Split SµDCs per plane) or a GEO star
// (GEOSinks > 0, no in-plane fabric).
type TopoChoice struct {
	K        int `json:"k,omitempty"`
	Split    int `json:"split,omitempty"`
	GEOSinks int `json:"geo_sinks,omitempty"`
}

// String names the choice for trace tables.
func (tc TopoChoice) String() string {
	if tc.GEOSinks > 0 {
		return fmt.Sprintf("geo%d", tc.GEOSinks)
	}
	if tc.K == 2 && tc.Split == 1 {
		return "ring"
	}
	return fmt.Sprintf("k%d×%d", tc.K, tc.Split)
}

// Space is the finite design space the search moves through: one slice of
// admissible values per axis. Not every combination needs to be
// structurally valid — invalid combinations are skipped by the proposal
// filter — but at least one must be.
type Space struct {
	Planes       []int        `json:"planes"`
	SatsPerPlane []int        `json:"sats_per_plane"`
	AltitudesKm  []float64    `json:"altitudes_km"`
	Topologies   []TopoChoice `json:"topologies"`
	Devices      []int        `json:"devices"`
	Recoveries   []string     `json:"recoveries"`

	// ShellCounts is the optional shell-count axis (empty means {1}: the
	// classic single-shell space). Counts > 1 stack the cluster design
	// that many shells deep at econ.ShellSpacingKm intervals; GEO
	// topologies never stack (the combination is filtered as invalid).
	ShellCounts []int `json:"shell_counts,omitempty"`
	// InterShells is the optional inter-shell topology axis
	// (econ.InterShellAligned / econ.InterShellNearest; empty means
	// {aligned}). It only matters for designs with > 1 shell.
	InterShells []string `json:"inter_shells,omitempty"`
}

// DefaultSpace is the study space behind ext-optimize and the daemon's
// default optimize spec: 2880 combinations spanning the paper's design
// axes.
func DefaultSpace() Space {
	return Space{
		Planes:       []int{1, 2, 3, 4},
		SatsPerPlane: []int{8, 12, 16, 24},
		AltitudesKm:  []float64{550, 800, 1200},
		Topologies: []TopoChoice{
			{K: 2, Split: 1},
			{K: 4, Split: 1},
			{K: 4, Split: 2},
			{K: 6, Split: 2},
			{GEOSinks: 3},
		},
		Devices:    []int{1, 2, 4},
		Recoveries: []string{econ.RecoveryNone, econ.RecoveryRetry, econ.RecoveryCheckpoint, econ.RecoveryTMR},
	}
}

// Validate rejects spaces with empty axes or malformed shell axes.
func (s Space) Validate() error {
	if len(s.Planes) == 0 || len(s.SatsPerPlane) == 0 || len(s.AltitudesKm) == 0 ||
		len(s.Topologies) == 0 || len(s.Devices) == 0 || len(s.Recoveries) == 0 {
		return fmt.Errorf("optimize: space has an empty axis: %+v", s)
	}
	for _, n := range s.ShellCounts {
		if n < 1 {
			return fmt.Errorf("optimize: shell count %d < 1 in space", n)
		}
	}
	for _, name := range s.InterShells {
		if name != econ.InterShellAligned && name != econ.InterShellNearest {
			return fmt.Errorf("optimize: unknown inter-shell rule %q in space", name)
		}
	}
	return nil
}

// axes is the number of search axes in a design vector. The last two —
// shell count and inter-shell topology — are optional; see activeAxes.
const axes = 8

// legacyAxes are the always-present axes of the original 6-axis space.
const legacyAxes = 6

// shellCounts returns the shell-count axis with its {1} default applied.
func (s Space) shellCounts() []int {
	if len(s.ShellCounts) == 0 {
		return []int{1}
	}
	return s.ShellCounts
}

// interShells returns the inter-shell axis with its {aligned} default.
func (s Space) interShells() []string {
	if len(s.InterShells) == 0 {
		return []string{econ.InterShellAligned}
	}
	return s.InterShells
}

// activeAxes returns how many axes random draws walk. Spaces that leave
// both shell axes at a single value keep the legacy 6-axis draw sequence,
// so every pre-multi-shell seed reproduces its exact search trace; only a
// space that actually searches over shells consumes the extra draws.
func (s Space) activeAxes() int {
	if len(s.shellCounts()) > 1 || len(s.interShells()) > 1 {
		return axes
	}
	return legacyAxes
}

// dims returns the per-axis cardinalities.
func (s Space) dims() [axes]int {
	return [axes]int{len(s.Planes), len(s.SatsPerPlane), len(s.AltitudesKm),
		len(s.Topologies), len(s.Devices), len(s.Recoveries),
		len(s.shellCounts()), len(s.interShells())}
}

// Size returns the total combination count.
func (s Space) Size() int {
	n := 1
	for _, d := range s.dims() {
		n *= d
	}
	return n
}

// design materializes the index vector v into a candidate design.
func (s Space) design(v [axes]int) econ.Design {
	topo := s.Topologies[v[3]]
	d := econ.Design{
		Planes:         s.Planes[v[0]],
		SatsPerPlane:   s.SatsPerPlane[v[1]],
		AltitudeKm:     s.AltitudesKm[v[2]],
		DevicesPerSuDC: s.Devices[v[4]],
		Recovery:       s.Recoveries[v[5]],
	}
	if topo.GEOSinks > 0 {
		d.GEO = true
		d.GEOSinks = topo.GEOSinks
	} else {
		d.K = topo.K
		d.Split = topo.Split
	}
	if sc := s.shellCounts()[v[6]]; sc > 1 {
		d.Shells = sc
		d.InterShell = s.interShells()[v[7]]
	}
	return d
}

// Config tunes a search run.
type Config struct {
	// Seed drives every random draw; equal seeds give bit-identical runs.
	Seed int64 `json:"seed"`
	// Budget is the total number of candidate proposals (evaluations plus
	// cache hits). Zero means 64.
	Budget int `json:"budget"`
	// Restarts is the number of independent hill-climbing chains. Zero
	// means 4. Restarts = Budget spends the whole budget on round zero's
	// uniform draws: the equal-budget random baseline.
	Restarts int `json:"restarts"`
	// StalePatience restarts a chain after this many consecutive rejected
	// moves. Zero means 3.
	StalePatience int `json:"stale_patience"`
	// Anneal enables simulated-annealing acceptance of worse moves under
	// a linearly cooling temperature.
	Anneal bool `json:"anneal"`
	// InitTemp is the initial relative-delta temperature when annealing.
	// Zero means 0.05.
	InitTemp float64 `json:"init_temp"`
	// Workers caps the evaluation fan-out slots on the shared pool
	// (0 = one per CPU, 1 = serial). Never affects results.
	Workers int `json:"workers"`
	// Eval configures the candidate evaluation pipeline.
	Eval EvalConfig `json:"-"`
	// Obs, when non-nil, receives per-round "optimize.best_objective"
	// progress samples timestamped by candidates evaluated (sim-clock
	// friendly, so serve snapshots stay deterministic), and, once a search
	// succeeds, the Outcome's counters and best-objective gauge.
	// Write-only: results are identical with or without it.
	Obs *obs.Registry `json:"-"`
}

func (c Config) withDefaults() Config {
	if c.Budget == 0 {
		c.Budget = 64
	}
	if c.Restarts == 0 {
		c.Restarts = 4
	}
	if c.StalePatience == 0 {
		c.StalePatience = 3
	}
	if c.InitTemp == 0 {
		c.InitTemp = 0.05
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.Budget < 1 {
		return fmt.Errorf("optimize: budget %d < 1", c.Budget)
	}
	if c.Restarts < 1 {
		return fmt.Errorf("optimize: restarts %d < 1", c.Restarts)
	}
	if c.InitTemp < 0 || math.IsNaN(c.InitTemp) || math.IsInf(c.InitTemp, 0) {
		return fmt.Errorf("optimize: invalid initial temperature %v", c.InitTemp)
	}
	return nil
}

// Candidate is one proposal in the search trace.
type Candidate struct {
	// Index is the global proposal index (also the RNG stream key).
	Index int `json:"index"`
	// Chain is the restart chain that proposed it.
	Chain  int         `json:"chain"`
	Design econ.Design `json:"design"`
	Score  Score       `json:"score"`
	// Accepted marks proposals the chain moved to.
	Accepted bool `json:"accepted"`
	// Restart marks fresh random starts (round zero and stale restarts).
	Restart bool `json:"restart"`
	// Cached marks proposals scored from the content-addressed cache.
	Cached bool `json:"cached"`
}

// Outcome is a completed search.
type Outcome struct {
	Best  Candidate   `json:"best"`
	Trace []Candidate `json:"trace"`
	// Pareto is the cost-vs-goodput frontier over distinct feasible
	// candidates, cheapest first.
	Pareto []Candidate `json:"pareto"`

	Proposals  int `json:"proposals"`
	Evaluated  int `json:"evaluated"`
	CacheHits  int `json:"cache_hits"`
	Infeasible int `json:"infeasible"`
	Accepted   int `json:"accepted"`
	Rejected   int `json:"rejected"`
	Restarts   int `json:"restarts"`
}

// mix derives the RNG stream for candidate index i from the search seed
// (splitmix64 finalizer — adjacent indices land far apart).
func mix(seed int64, i int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

// streamOptimize is the PCG stream constant of the proposals' random
// sources, the ASCII of "optimize".
const streamOptimize = 0x6f7074696d697a65

// rngFor returns candidate i's private RNG stream, seeded by mix(seed, i).
func rngFor(seed int64, i int) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(mix(seed, i)), streamOptimize))
}

// randomValid draws a structurally valid index vector, or ok=false after
// a bounded number of tries (a space may be almost entirely invalid).
func randomValid(s Space, ev *Evaluator, rng *rand.Rand) ([axes]int, bool) {
	dims := s.dims()
	active := s.activeAxes()
	for try := 0; try < 64; try++ {
		var v [axes]int
		for a := 0; a < active; a++ {
			v[a] = rng.IntN(dims[a])
		}
		if ev.structuralOK(s.design(v)) {
			return v, true
		}
	}
	return [axes]int{}, false
}

// neighbor resamples one axis of v uniformly (a Hamming-1 move: any
// other value on a single axis), retrying until the result is
// structurally valid and distinct; ok=false when the neighborhood is
// exhausted for this stream. Resampling rather than ±1 stepping keeps
// categorical axes (topology, recovery) and short ordinal axes from
// trapping a chain behind a one-step valley.
func neighbor(s Space, ev *Evaluator, v [axes]int, rng *rand.Rand) ([axes]int, bool) {
	dims := s.dims()
	active := s.activeAxes()
	for try := 0; try < 32; try++ {
		a := rng.IntN(active)
		if dims[a] < 2 {
			continue
		}
		n := v
		n[a] = rng.IntN(dims[a])
		if n == v {
			continue
		}
		if ev.structuralOK(s.design(n)) {
			return n, true
		}
	}
	return v, false
}

// chain is one restart chain's state.
type chain struct {
	vec     [axes]int
	score   Score
	started bool
	stale   int
}

// proposal is one round entry: the design a chain puts forward plus the
// RNG stream that proposed it (reused for its acceptance draw).
type proposal struct {
	index   int
	chain   int
	vec     [axes]int
	restart bool
	rng     *rand.Rand
}

// record flushes the outcome's tallies into reg once, at the end of a
// successful search: the seven optimize.* counters and the final
// best-objective gauge. A nil registry is a no-op.
func (o *Outcome) record(reg *obs.Registry) {
	reg.Counter("optimize.proposals").Add(o.Proposals)
	reg.Counter("optimize.evaluated").Add(o.Evaluated)
	reg.Counter("optimize.cache_hits").Add(o.CacheHits)
	reg.Counter("optimize.infeasible").Add(o.Infeasible)
	reg.Counter("optimize.accepted").Add(o.Accepted)
	reg.Counter("optimize.rejected").Add(o.Rejected)
	reg.Counter("optimize.restarts").Add(o.Restarts)
	reg.Gauge("optimize.best_objective").Set(o.Best.Score.Objective)
}

// Search runs the heuristic: Restarts hill-climbing chains propose one
// neighbor each per round, the round's distinct uncached designs evaluate
// in parallel on the shared pool, and acceptance plays back serially in
// proposal order. A chain restarts from a fresh random draw after
// StalePatience consecutive rejections. With cfg.Anneal, worse moves are
// accepted with probability exp(Δ/T) under a linearly cooling relative
// temperature.
func Search(ctx context.Context, cfg Config, space Space) (*Outcome, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	ev, err := NewEvaluator(cfg.Eval, space)
	if err != nil {
		return nil, err
	}
	chains := make([]chain, cfg.Restarts)
	cache := make(map[designKey]Score)
	out := &Outcome{}
	out.Best.Index = -1
	// bestVec tracks the incumbent best's index vector for basin-hopping
	// restarts.
	var bestVec [axes]int

	for out.Proposals < cfg.Budget {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Propose serially: one candidate per chain, each from its own
		// index-keyed RNG stream.
		var props []proposal
		for c := range chains {
			if out.Proposals+len(props) >= cfg.Budget {
				break
			}
			rng := rngFor(cfg.Seed, out.Proposals+len(props))
			p := proposal{index: out.Proposals + len(props), chain: c, rng: rng}
			ch := &chains[c]
			fresh := !ch.started || ch.stale >= cfg.StalePatience
			if fresh {
				var v [axes]int
				ok := false
				// Stale restarts basin-hop half the time: a two-move
				// perturbation of the incumbent best intensifies around the
				// good region, while the other half stays a uniform random
				// draw for diversification. Round-zero starts are always
				// uniform.
				if ch.started && out.Best.Index >= 0 && rng.IntN(2) == 0 {
					v, ok = bestVec, true
					for m := 0; m < 2; m++ {
						if n, moved := neighbor(space, ev, v, rng); moved {
							v = n
						}
					}
				}
				if !ok {
					v, ok = randomValid(space, ev, rng)
				}
				if !ok {
					return nil, fmt.Errorf("optimize: no structurally valid design found in space")
				}
				p.vec, p.restart = v, true
			} else {
				v, ok := neighbor(space, ev, ch.vec, rng)
				if !ok {
					// Local neighborhood exhausted: restart instead.
					v, ok = randomValid(space, ev, rng)
					if !ok {
						return nil, fmt.Errorf("optimize: no structurally valid design found in space")
					}
					p.restart = true
				}
				p.vec = v
			}
			props = append(props, p)
		}
		if len(props) == 0 {
			break
		}

		// Evaluate the round's distinct uncached designs in parallel. The
		// registry is deliberately not passed to the pool: worker wall-time
		// histograms would differ run to run.
		type job struct {
			key    designKey
			design econ.Design
			score  Score
		}
		var jobs []job
		// evalOwner maps a design key to the proposal index whose turn paid
		// for its evaluation this round; every other proposal of the same
		// design is a cache hit.
		evalOwner := make(map[designKey]int)
		for _, p := range props {
			d := space.design(p.vec)
			k := designKeyOf(d)
			if _, hit := cache[k]; hit {
				continue
			}
			if _, queued := evalOwner[k]; queued {
				continue
			}
			evalOwner[k] = p.index
			jobs = append(jobs, job{key: k, design: d})
		}
		if err := pool.Map(len(jobs), cfg.Workers, func(id int) error {
			if err := ctx.Err(); err != nil {
				return err
			}
			s, err := ev.Evaluate(jobs[id].design)
			if err != nil {
				return err
			}
			jobs[id].score = s
			return nil
		}); err != nil {
			return nil, err
		}
		for _, j := range jobs {
			cache[j.key] = j.score
			out.Evaluated++
		}

		// Acceptance plays back serially in proposal order.
		for _, p := range props {
			d := space.design(p.vec)
			k := designKeyOf(d)
			score := cache[k]
			cand := Candidate{
				Index: p.index, Chain: p.chain, Design: d, Score: score,
				Restart: p.restart,
			}
			if owner, ok := evalOwner[k]; !ok || owner != p.index {
				cand.Cached = true
				out.CacheHits++
			}
			out.Proposals++

			ch := &chains[p.chain]
			switch {
			case !score.Feasible:
				out.Infeasible++
				out.Rejected++
				if ch.started {
					ch.stale++
				}
			case p.restart || !ch.started:
				if p.restart && ch.started {
					out.Restarts++
				}
				ch.vec, ch.score, ch.started, ch.stale = p.vec, score, true, 0
				cand.Accepted = true
				out.Accepted++
			case accept(score.Objective, ch.score.Objective, cfg, out.Proposals, p.rng):
				ch.vec, ch.score, ch.stale = p.vec, score, 0
				cand.Accepted = true
				out.Accepted++
			default:
				ch.stale++
				out.Rejected++
			}
			if score.Feasible && (out.Best.Index < 0 || score.Objective > out.Best.Score.Objective) {
				out.Best = cand
				bestVec = p.vec
			}
			out.Trace = append(out.Trace, cand)
		}

		// Stream round progress on the registry's sim clock (candidate
		// count as the time axis keeps snapshots deterministic).
		if cfg.Obs != nil && out.Best.Index >= 0 {
			cfg.Obs.SetTime(float64(out.Proposals))
			cfg.Obs.Emit("optimize.best_objective", "sample", out.Best.Score.Objective)
		}
	}

	if out.Best.Index < 0 {
		return nil, fmt.Errorf("optimize: no feasible candidate in %d proposals", out.Proposals)
	}
	out.Pareto = paretoFront(out.Trace)
	out.record(cfg.Obs)
	return out, nil
}

// accept decides a non-restart move. Greedy by default; with annealing,
// worse moves pass with probability exp(Δrel/T) under a temperature that
// cools linearly over the budget.
func accept(next, cur float64, cfg Config, proposals int, rng *rand.Rand) bool {
	if next > cur {
		return true
	}
	if !cfg.Anneal {
		return false
	}
	t := cfg.InitTemp * (1 - float64(proposals)/float64(cfg.Budget))
	if t <= 0 {
		return false
	}
	scale := math.Abs(cur)
	if scale == 0 {
		return false
	}
	delta := (next - cur) / scale
	return rng.Float64() < math.Exp(delta/t)
}

// paretoFront extracts the cost-vs-goodput frontier over distinct
// feasible candidates: cheapest first, goodput strictly increasing, equal
// costs in Key order.
func paretoFront(trace []Candidate) []Candidate {
	byKey := make(map[designKey]Candidate)
	for _, c := range trace {
		if !c.Score.Feasible {
			continue
		}
		k := designKeyOf(c.Design)
		if _, ok := byKey[k]; !ok {
			byKey[k] = c
		}
	}
	all := make([]Candidate, 0, len(byKey))
	for _, c := range byKey {
		all = append(all, c)
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score.CostPerHour != all[j].Score.CostPerHour {
			return all[i].Score.CostPerHour < all[j].Score.CostPerHour
		}
		return Key(all[i].Design) < Key(all[j].Design)
	})
	var front []Candidate
	bestGoodput := math.Inf(-1)
	for _, c := range all {
		if c.Score.GoodputMbps > bestGoodput {
			front = append(front, c)
			bestGoodput = c.Score.GoodputMbps
		}
	}
	return front
}

// Exhaustive evaluates every structurally valid design in the space in
// axis order (the ground truth for small spaces; the differential suite
// compares Search against it on a seeded subspace).
func Exhaustive(ctx context.Context, cfg Config, space Space) (*Outcome, error) {
	cfg = cfg.withDefaults()
	ev, err := NewEvaluator(cfg.Eval, space)
	if err != nil {
		return nil, err
	}
	dims := space.dims()
	var vecs [][axes]int
	var v [axes]int
	var walk func(a int)
	walk = func(a int) {
		if a == axes {
			if ev.structuralOK(space.design(v)) {
				vecs = append(vecs, v)
			}
			return
		}
		for i := 0; i < dims[a]; i++ {
			v[a] = i
			walk(a + 1)
		}
	}
	walk(0)
	if len(vecs) == 0 {
		return nil, fmt.Errorf("optimize: no structurally valid design in space")
	}
	out := &Outcome{}
	out.Best.Index = -1
	scores := make([]Score, len(vecs))
	if err := pool.Map(len(vecs), cfg.Workers, func(id int) error {
		if err := ctx.Err(); err != nil {
			return err
		}
		s, err := ev.Evaluate(space.design(vecs[id]))
		if err != nil {
			return err
		}
		scores[id] = s
		return nil
	}); err != nil {
		return nil, err
	}
	for i, vec := range vecs {
		cand := Candidate{Index: i, Design: space.design(vec), Score: scores[i]}
		out.Proposals++
		out.Evaluated++
		if !scores[i].Feasible {
			out.Infeasible++
		} else if out.Best.Index < 0 || scores[i].Objective > out.Best.Score.Objective {
			out.Best = cand
		}
		out.Trace = append(out.Trace, cand)
	}
	if out.Best.Index < 0 {
		return nil, fmt.Errorf("optimize: no feasible candidate among %d designs", len(vecs))
	}
	out.Pareto = paretoFront(out.Trace)
	return out, nil
}
