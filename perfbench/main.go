// Command perfbench is the repository's benchmark. It runs one of three
// closed-loop workloads — design-search, mega-storm and daemon-mix — each
// driven by a single caller that waits for every op before sending the
// next, and prints the workload's metrics as one JSON object on its last
// line of output.
//
// Every number comes from timing calls into the public functions of the
// program's packages from this package's own files; no program file is
// instrumented. See README.md for the workloads, the metrics and the
// layer → metric → workload map.
//
//	perfbench --workload design-search --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the separate
// traced run and prints the per-layer metrics.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// setupRounds is how many times a run performs its one-time set-up, and
// setup_s is their median, so one set-up caught by the machine's drift does
// not move it. One runs in this process and setupRounds-1 in child
// processes, so lazy per-process work (the workload calibration) is paid
// every time.
const setupRounds = 3

// benchWorkload is one benchmark workload.
type benchWorkload struct {
	name string
	// setup does the one-time work before the first timed op, including
	// one untimed warm-up op, and returns the state the run needs.
	setup func() (any, error)
	// run measures the workload for at least seconds and reports its
	// end-to-end metrics.
	run func(state any, seed int64, seconds float64) (*report, error)
	// trace is the separate traced run that reports the per-layer
	// metrics.
	trace func(state any, seed int64, seconds float64, tr *tracer) (*report, error)
}

var workloads = []benchWorkload{
	{name: "design-search", setup: setupDesignSearch, run: runDesignSearch, trace: traceDesignSearch},
	{name: "mega-storm", setup: setupMegaStorm, run: runMegaStorm, trace: traceMegaStorm},
	{name: "daemon-mix", setup: setupDaemonMix, run: runDaemonMix, trace: traceDaemonMix},
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

// report is what a run prints.
type report struct {
	correct           bool
	attempted, failed int
	metrics           []metric
	// notes are human-readable lines printed before the result.
	notes []string
}

func (r *report) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name: name, unit: unit, value: v})
}

// maxNotes bounds the notes a run prints, so a run whose every op fails a
// check stays readable.
const maxNotes = 40

func (r *report) note(format string, args ...any) {
	switch {
	case len(r.notes) < maxNotes:
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	case len(r.notes) == maxNotes:
		r.notes = append(r.notes, "further notes omitted")
	}
}

func main() {
	name := flag.String("workload", "", "workload: design-search, mega-storm or daemon-mix")
	seed := flag.Int64("seed", 1, "seed the op list is derived from")
	seconds := flag.Float64("seconds", 30, "minimum measured wall seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	setupProbe := flag.Bool("setup-probe", false, "run only the workload's set-up and print its seconds")
	flag.Parse()

	if err := run(*name, *seed, *seconds, *traceFlag, *setupProbe); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traceFlag int, setupProbe bool) error {
	var wl *benchWorkload
	for i := range workloads {
		if workloads[i].name == name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q (have design-search, mega-storm, daemon-mix)", name)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", traceFlag)
	}
	if !(seconds > 0) {
		return fmt.Errorf("--seconds must be positive, got %v", seconds)
	}

	if setupProbe {
		t0 := time.Now()
		if _, err := wl.setup(); err != nil {
			return err
		}
		fmt.Printf("setup_s %v\n", time.Since(t0).Seconds())
		return nil
	}

	env := recordEnv()

	var setups []float64
	if traceFlag == 0 {
		for i := 1; i < setupRounds; i++ {
			s, err := probeSetup(name, seed)
			if err != nil {
				return err
			}
			setups = append(setups, s)
		}
	}
	t0 := time.Now()
	state, err := wl.setup()
	if err != nil {
		return fmt.Errorf("%s set-up: %w", name, err)
	}
	setups = append(setups, time.Since(t0).Seconds())

	var rep *report
	tr := newTracer()
	if traceFlag == 0 {
		rep, err = wl.run(state, seed, seconds)
	} else {
		rep, err = wl.trace(state, seed, seconds, tr)
	}
	if err != nil {
		return err
	}
	// A second calibration shows whether the machine's speed drifted
	// during the run.
	env.CalibEndMS = calibMS()
	if traceFlag == 0 {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		rep.add("peak_rss_mb", "MB", rss)
		rep.add("setup_s", "s", median(setups))
		rep.note("setup_s median of %d set-ups: %v", len(setups), setups)
	} else {
		path, err := tr.write(name, seed, env)
		if err != nil {
			return err
		}
		rep.note("spans: %d written to %s", len(tr.spans), path)
	}

	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)
	for _, n := range rep.notes {
		fmt.Println("#", n)
	}
	failRatio := 0.0
	if rep.attempted > 0 {
		failRatio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Printf("%-26s %12v %s  (%d of %d ops failed a check)\n", "fail_ratio", failRatio, "ratio", rep.failed, rep.attempted)
	metrics := make(map[string]any, len(rep.metrics))
	for _, m := range rep.metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is not finite", m.name)
		}
		fmt.Printf("%-26s %12.6g %s\n", m.name, m.value, m.unit)
		metrics[m.name] = struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		}{m.value, m.unit}
	}
	if rep.attempted < 1 {
		return errors.New("no op was attempted")
	}
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int            `json:"attempted"`
		Failed    int            `json:"failed"`
		Metrics   map[string]any `json:"metrics"`
	}{rep.correct && rep.failed == 0, rep.attempted, rep.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// probeSetup runs the workload's set-up in a child process, so per-process
// lazy initialisation is paid again, and returns its seconds.
func probeSetup(name string, seed int64) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10), "--setup-probe")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("set-up probe: %w", err)
	}
	field, ok := strings.CutPrefix(strings.TrimSpace(stdout.String()), "setup_s ")
	if !ok {
		return 0, fmt.Errorf("set-up probe printed %q", stdout.String())
	}
	return strconv.ParseFloat(field, 64)
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM in /proc/self/status")
}

// env is the context recorded with every run. None of it is a gated
// metric; it lets a reader tell a slow machine from a slow commit.
type env struct {
	Go         string  `json:"go"`
	CPU        string  `json:"cpu"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CalibMS    float64 `json:"calib_ms"`
	CalibEndMS float64 `json:"calib_end_ms"`
}

func recordEnv() env {
	e := env{Go: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown"}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	e.CalibMS = calibMS()
	return e
}

// calibMS is the median time of seven runs of a fixed pure-ALU loop, which
// tracks the machine's single-thread speed.
func calibMS() float64 {
	var times []float64
	for i := 0; i < 7; i++ {
		t0 := time.Now()
		calibSink = calibLoop(1 << 24)
		times = append(times, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(times)
}

var calibSink uint64

// calibLoop is a fixed pure-ALU loop (xorshift64).
func calibLoop(n int) uint64 {
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}
