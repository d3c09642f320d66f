package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"spacedc/internal/obs"
)

// TestCalendarWalksBack drives the calendar with times that arrive out of
// order, which no Config can produce, and checks every head against a
// linear scan for the earliest entry, ties going to the entry that
// entered first. Times come from a small integer set, so ties are common.
func TestCalendarWalksBack(t *testing.T) {
	type entry struct {
		at       float64
		seq, sat int
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 64} {
		c := newCalendar(n, 4)
		ref := make([]entry, n)
		for s := range ref {
			ref[s] = entry{at: c.slots[s].at, seq: s, sat: s}
		}
		seq := n
		for step := 0; step < 5000; step++ {
			first := 0
			for i, e := range ref {
				if e.at < ref[first].at || (e.at == ref[first].at && e.seq < ref[first].seq) {
					first = i
				}
			}
			head := c.slots[c.head]
			if head.at != ref[first].at || head.sat != ref[first].sat {
				t.Fatalf("n=%d step %d: head is satellite %d at %v, want satellite %d at %v",
					n, step, head.sat, head.at, ref[first].sat, ref[first].at)
			}
			next := float64(rng.Intn(12))
			c.advance(next)
			ref[first] = entry{at: next, seq: seq, sat: head.sat}
			seq++
		}
	}
}

// fuzzProc takes perFrame seconds a frame, rounded up to whole seconds
// when whole is set: with an integral frame period, whole-second batches
// finish on arrival instants.
type fuzzProc struct {
	perFrame float64
	whole    bool
}

func (p fuzzProc) Process(frames int, _ float64) (float64, float64) {
	secs := p.perFrame * float64(frames)
	if p.whole {
		secs = math.Ceil(secs)
	}
	return secs, 100 * secs
}

// waveThermal derates the device along a sine of simulation time; depth
// above 1 reaches the minThrottleFactor floor.
type waveThermal struct{ depth, periodSec float64 }

func (h waveThermal) Factor(t float64) float64 {
	return 1 - h.depth*(0.5+0.5*math.Sin(t/h.periodSec))
}

func (waveThermal) Dissipated(start, secs, joules float64) {}

// retryOnce re-executes an upset batch once, straight away.
type retryOnce struct{}

func (retryOnce) Execute(e BatchExec) BatchOutcome {
	var o BatchOutcome
	now := e.Start
	for attempt := 0; attempt < 2; attempt++ {
		p := e.RunOnce(now)
		o.Accumulate(p)
		now += p.Secs
		if !p.Upset {
			o.Good = true
			return o
		}
	}
	return o
}

// simInput is FuzzSimulate's raw input, mapped onto a Config by config.
type simInput struct {
	sats               uint16 // 1–64; 0xF000 and above, 16–65,536 for a frame or two
	periodKind         uint8  // whole, tiny or any subnormal, millisecond, raw bits or 1.5 s
	periodBits         uint64
	frames             uint16 // run length in frame periods
	target, extra      uint8  // TargetBatch, and MaxBatch above it
	waitEighths        uint8  // MaxWaitSec in eighths of a period
	queueLimit         uint16 // 0 = the 4× Satellites default
	load               uint8  // service demand in 32nds of the offered frames
	whole              bool   // whole-second batches
	keepKind           uint8
	hazard, resetSplit float64
	retry              bool
	thermal, pause     uint8
	seed               int64
}

func (in simInput) config() (Config, Processor) {
	n := 1 + int(in.sats%64)
	k := 1 + int(in.frames%512)
	if in.sats >= 0xF000 {
		n = 16 * (1 + int(in.sats-0xF000))
		k = 1 + int(in.frames%2)
	}
	var p float64
	switch in.periodKind % 6 {
	case 0:
		p = float64(1 + in.periodBits%8)
	case 1: // phases round onto a few subnormals, so arrivals tie
		p = math.Float64frombits(1 + in.periodBits%64)
	case 2:
		p = math.Float64frombits(1 + in.periodBits%(1<<52-1))
	case 3:
		p = float64(1+in.periodBits%3000) / 1000
	case 4:
		p = math.Abs(math.Float64frombits(in.periodBits))
	default:
		p = 1.5
	}
	cfg := Config{
		Satellites:     n,
		FramePeriodSec: p,
		PixelsPerFrame: 1e6,
		QueueLimit:     int(in.queueLimit % 300),
		TargetBatch:    1 + int(in.target%32),
		MaxWaitSec:     p * float64(in.waitEighths%64) / 8,
		DurationSec:    p * (float64(k) + 0.25),
		Seed:           in.seed,
	}
	if in.extra%4 != 0 {
		cfg.MaxBatch = cfg.TargetBatch + int(in.extra%40)
	}
	switch in.keepKind % 5 {
	case 1:
		cfg.KeepProb = func(int, float64) float64 { return 0.5 }
	case 2:
		cfg.KeepProb = func(sat int, t float64) float64 { return math.Mod(0.37*float64(sat)+0.11*t/p, 1.1) }
	case 3:
		cfg.KeepProb = func(sat int, _ float64) float64 { return 1 - 0.8*float64(sat%2) }
	case 4:
		cfg.KeepProb = func(sat int, _ float64) float64 {
			if sat%3 == 0 {
				return math.NaN()
			}
			return 0.7
		}
	}
	if rate := math.Mod(math.Abs(in.hazard), 2); rate > 0 || in.retry || in.pause%4 != 0 {
		f := &FaultConfig{
			Hazard:        func(t float64) float64 { return rate * (1 + math.Sin(t)) },
			ResetFraction: math.Mod(math.Abs(in.resetSplit), 1),
			ResetMTTRSec:  3 * p,
		}
		if in.retry {
			f.Recovery = retryOnce{}
		}
		if w := p * float64(in.pause%4) / 4; w > 0 {
			f.PauseActive = func(t float64) bool { return math.Mod(t, 4*w) < w }
		}
		cfg.Faults = f
	}
	if in.thermal%4 != 0 {
		cfg.Thermal = waveThermal{depth: float64(in.thermal) / 200, periodSec: p * float64(1+in.thermal%7)}
	}
	return cfg, fuzzProc{perFrame: p * float64(in.load) / 32 / float64(n), whole: in.whole}
}

// compareWithHeap runs cfg through Simulate and refSimulate, each on its
// own registry when instrument is set. Where the heap never held two
// pending events at one instant, the statistics and metrics must match bit
// for bit; otherwise the two may order the tie differently, so it checks
// only that every arrival is accounted for, and reports whether the
// statistics differ.
func compareWithHeap(t *testing.T, cfg Config, proc Processor, instrument bool) (tied, differ bool) {
	t.Helper()
	ref, cal := cfg, cfg
	if instrument {
		ref.Obs, cal.Obs = obs.New(), obs.New()
	}
	want, ties, errRef := refSimulate(ref, proc)
	got, err := Simulate(cal, proc)
	if (err == nil) != (errRef == nil) {
		t.Fatalf("Simulate error %v, heap loop error %v", err, errRef)
	}
	if err != nil {
		return false, false
	}
	g, w := fmt.Sprintf("%+v", got), fmt.Sprintf("%+v", want)
	if ties > 0 {
		for _, s := range []Stats{got, want} {
			if s.Arrived != s.Processed+s.Corrupted+s.Dropped+s.LeftOver {
				t.Fatalf("tied run loses frames: %+v", s)
			}
		}
		return true, g != w
	}
	if g != w {
		t.Fatalf("Simulate diverged from the heap loop:\n got %s\nwant %s", g, w)
	}
	if instrument {
		if g, w := fmt.Sprintf("%+v", cal.Obs.Snapshot()), fmt.Sprintf("%+v", ref.Obs.Snapshot()); g != w {
			t.Fatalf("metrics diverged from the heap loop's:\n got %s\nwant %s", g, w)
		}
	}
	return false, false
}

// FuzzSimulate checks the frame calendar against the heap-driven event loop
// it replaced over formations, frame periods (whole, subnormal and raw),
// batch policies, queue limits, discard functions of satellite and time,
// hazards under no mitigation or a retry, thermal derating, compute
// pauses, and metrics on and off.
func FuzzSimulate(f *testing.F) {
	seeds := []simInput{
		{sats: 7, periodKind: 5, frames: 200, target: 3, waitEighths: 16, load: 20, keepKind: 2, seed: 1},
		// Whole seconds on a whole period: completions land on arrivals.
		{sats: 0, periodKind: 0, periodBits: 2, frames: 100, target: 0, load: 64, whole: true, seed: 2},
		{sats: 3, periodKind: 0, periodBits: 0, frames: 300, target: 5, extra: 7, load: 40, whole: true, keepKind: 1, seed: 3},
		{sats: 63, periodKind: 2, periodBits: 12345, frames: 50, target: 31, load: 16, seed: 4},
		{sats: 40, periodKind: 1, periodBits: 2, frames: 300, target: 4, load: 60, keepKind: 2, seed: 9},
		{sats: 0xF123, frames: 1, target: 15, periodKind: 5, load: 30, seed: 5},
		{sats: 12, periodKind: 3, periodBits: 1499, frames: 400, target: 8, extra: 9, waitEighths: 20,
			queueLimit: 20, load: 50, keepKind: 4, hazard: 0.3, resetSplit: 0.4, thermal: 150, pause: 2, seed: 6},
		{sats: 5, periodKind: 4, periodBits: math.Float64bits(0.7), frames: 511, target: 2, load: 33,
			keepKind: 3, hazard: 1.5, resetSplit: 0.9, retry: true, thermal: 255, seed: 7},
		{sats: 20, periodKind: 5, frames: 90, target: 9, load: 0, seed: 8},
	}
	for i, s := range seeds {
		f.Add(s.sats, s.periodKind, s.periodBits, s.frames, s.target, s.extra, s.waitEighths, s.queueLimit,
			s.load, s.whole, s.keepKind, s.hazard, s.resetSplit, s.retry, s.thermal, s.pause, s.seed, i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, sats uint16, periodKind uint8, periodBits uint64, frames uint16, target, extra,
		waitEighths uint8, queueLimit uint16, load uint8, whole bool, keepKind uint8, hazard, resetSplit float64,
		retry bool, thermal, pause uint8, seed int64, instrument bool) {
		cfg, proc := simInput{sats, periodKind, periodBits, frames, target, extra, waitEighths, queueLimit,
			load, whole, keepKind, hazard, resetSplit, retry, thermal, pause, seed}.config()
		compareWithHeap(t, cfg, proc, instrument)
	})
}
