// Reachability gate: every function declared in a non-test file under
// internal/ is either linked into one of the repository's binaries (the
// commands, the examples and perfbench) or is a reference implementation
// that a test compares live code against, listed in reachOracles. The
// linker, not a name scan, decides what is reached: the binaries are built
// with inlining off in this module, so every called function keeps its
// symbol, and `go tool nm` lists what each one links.
package spacedc_test

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// reachOracles lists the functions that no binary links but a test trusts
// as an oracle, each with the test that compares live code against it.
// Names read pkg.F, pkg.T.M or pkg.(*T).M, relative to spacedc/internal.
var reachOracles = map[string]string{
	// The ablation benches and the Example sweep the live hardening model
	// over this list.
	"core.Hardenings": "BenchmarkAblationHardeningSweep, ExampleHardening_ComputeOverhead",

	// Layer-by-layer kernel graphs re-derive apps' Table 5 FLOPs/pixel.
	"gpusim.VGG19Graph":                      "TestVGG19MatchesTable5",
	"gpusim.TrafficMonitorGraph":             "TestTrafficMonitorMatchesTable5",
	"gpusim.KMeansGraph":                     "TestKMeansMatchesTable5",
	"gpusim.AircraftDetectGraph":             "TestApproximateGraphsWithinTolerance",
	"gpusim.MobileNetV3Graph":                "TestApproximateGraphsWithinTolerance",
	"gpusim.Graphs":                          "TestGraphsCatalog",
	"gpusim.ValidateAgainstTable5":           "TestVGG19MatchesTable5",
	"gpusim.KernelGraph.TotalMACs":           "TestVGG19MatchesTable5",
	"gpusim.KernelGraph.TotalBytes":          "TestArithmeticIntensityOrdering",
	"gpusim.KernelGraph.OpsPerPixel":         "TestVGG19MatchesTable5",
	"gpusim.KernelGraph.ArithmeticIntensity": "TestArithmeticIntensityOrdering",
	"gpusim.conv":                            "TestVGG19MatchesTable5",
	"gpusim.depthwise":                       "TestApproximateGraphsWithinTolerance",
	"gpusim.dense":                           "TestVGG19MatchesTable5",
	"gpusim.dsp":                             "TestTrafficMonitorMatchesTable5",
	// Published device peaks bound the arithmetic rate Table 5 and the
	// Table 6 calibration imply together.
	"gpusim.RooflineFor":          "TestCheckConsistencyAllRowsPhysical",
	"gpusim.ImpliedOpsPerSecond":  "TestCheckConsistencyAllRowsPhysical",
	"gpusim.CheckConsistency":     "TestCheckConsistencyAllRowsPhysical",
	"gpusim.Table6":               "TestModelReproducesTable6AtOptimalBatch",
	"gpusim.Catalog":              "TestRooflineCatalogCoversDevices, BenchmarkAblationDeviceSweep",
	"gpusim.(*Model).Calibration": "TestEfficiencyCurveUnimodal, BenchmarkAblationBatchSize",

	// The explicit relay network checks the closed-form Table 8 capacity
	// and netsim's static rates.
	"isl.BuildCluster":                     "TestSimulationMatchesClosedForm",
	"isl.Topology.Validate":                "TestSimulationMatchesClosedForm",
	"isl.(*Network).MaxLinkLoad":           "TestSimulationMatchesClosedForm",
	"isl.(*Network).Saturated":             "TestSimulationMatchesClosedForm",
	"isl.(*Network).IngestRate":            "TestFlowConservationProperty",
	"isl.(*Network).EOCount":               "TestFlowConservationProperty",
	"isl.(*Network).CheckFlowConservation": "TestFlowConservationProperty",
	"isl.MaxSupportableBySimulation":       "TestSimulationMatchesClosedForm, netsim's TestMaxSupportableMatchesTable8",

	// netsim's dynamic capacity search and the closed-form Fig 11 shape.
	"netsim.MaxSupportable":         "TestMaxSupportableMatchesTable8, BenchmarkExtNetsimValidation",
	"netsim.Supported":              "TestOverloadedRingShowsLoss",
	"netsim.AnalyticBottleneckUtil": "TestBottleneckUtilizationMatchesFig11Shape",

	// Exact sample statistics the bucketed histograms are checked against.
	"obs.Summarize":        "TestNetsimLatencyHistogramTracksExact",
	"obs.Percentile":       "TestQuantileTracksPercentileSorted, TestP95FromBucketsTracksExact",
	"obs.PercentileSorted": "TestQuantileTracksPercentileSorted",

	// Full enumeration of the design space the heuristic search samples.
	"optimize.Exhaustive": "TestHeuristicBeatsRandomSweep",

	// Two-body propagation, element recovery and an RK4 integrator check
	// the analytic J2 and SGP4 propagators.
	"orbit.Elements.StateAt":               "TestStateAtJ2ContinuousWithStateAt",
	"orbit.ElementsFromState":              "TestRK4J2NodalRegressionMatchesAnalytic",
	"orbit.TrueToEccentric":                "TestAnomalyRoundTrip",
	"orbit.EccentricToMean":                "TestRK4J2NodalRegressionMatchesAnalytic",
	"orbit.SpecificEnergy":                 "TestRK4DragLowersOrbit",
	"orbit.NewNumericalPropagator":         "TestRK4SGP4CrossValidation",
	"orbit.(*NumericalPropagator).State":   "TestRK4SGP4CrossValidation",
	"orbit.(*NumericalPropagator).accel":   "TestRK4SGP4CrossValidation",
	"orbit.(*NumericalPropagator).rk4Step": "TestRK4SGP4CrossValidation",
	// ElementsFromState's angular momentum.
	"vecmath.Vec3.Cross": "TestRK4J2NodalRegressionMatchesAnalytic",

	// The rate that moves a size in a given time, which DataRate's Volume
	// and Transmit invert.
	"units.DataSize.Over": "TestDataSizeOver",
}

const internalPrefix = "spacedc/internal/"

func TestInternalCodeIsLinked(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary")
	}
	linked := linkedInternalFuncs(t)
	declared := declaredInternalFuncs(t)

	var unreached []string
	for name, pos := range declared {
		if !linked[name] && reachOracles[name] == "" {
			unreached = append(unreached, pos+": "+name)
		}
	}
	sort.Strings(unreached)
	for _, u := range unreached {
		t.Errorf("%s is linked into no binary and is not an allowlisted oracle", u)
	}
	if len(unreached) > 0 {
		t.Errorf("%d unreached functions: delete them, move them into a _test.go file, or list an oracle in reachOracles", len(unreached))
	}
	for name := range reachOracles {
		switch {
		case declared[name] == "":
			t.Errorf("reachOracles lists %s, which is no longer declared", name)
		case linked[name]:
			t.Errorf("reachOracles lists %s, which a binary links", name)
		}
	}
}

// linkedInternalFuncs builds every binary with inlining off in this module
// and returns the spacedc/internal functions their symbol tables hold.
func linkedInternalFuncs(t *testing.T) map[string]bool {
	goTool, err := exec.LookPath("go") // go test puts GOROOT/bin first on PATH
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	const noInline = "-gcflags=spacedc/...=-l"
	goRun(t, nil, goTool, "build", noInline, "-o", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	goRun(t, []string{"GOFLAGS=-mod=mod", "GOPROXY=off"}, goTool,
		"-C", "perfbench", "build", noInline, "-o", filepath.Join(dir, "perfbench"), ".")

	bins, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	linked := map[string]bool{}
	for _, bin := range bins {
		out := goRun(t, nil, goTool, "tool", "nm", filepath.Join(dir, bin.Name()))
		for _, line := range strings.Split(string(out), "\n") {
			i := strings.Index(line, " T ")
			if i < 0 {
				i = strings.Index(line, " t ")
			}
			if i < 0 || !strings.HasPrefix(line[i+3:], internalPrefix) {
				continue
			}
			linked[stripTypeArgs(strings.TrimPrefix(line[i+3:], internalPrefix))] = true
		}
	}
	if len(linked) == 0 {
		t.Fatalf("no %s symbol in %d binaries", internalPrefix, len(bins))
	}
	return linked
}

func goRun(t *testing.T, env []string, name string, args ...string) []byte {
	t.Helper()
	cmd := exec.Command(name, args...)
	cmd.Env = append(os.Environ(), env...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("%s %s: %v\n%s", name, strings.Join(args, " "), err, stderr.Bytes())
	}
	return out
}

// stripTypeArgs drops the bracketed shapes of a generic instantiation, so
// pool.Map[go.shape.int] reads pool.Map.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// declaredInternalFuncs maps each function and method declared in a
// non-test file under internal/ to its position. init functions and String
// and Error methods are left out: fmt reaches the last two through an
// interface, so a test's %v may depend on one that no binary links.
func declaredInternalFuncs(t *testing.T) map[string]string {
	fset := token.NewFileSet()
	declared := map[string]string{}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := strings.TrimPrefix(filepath.ToSlash(filepath.Dir(path)), "internal/")
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			name := pkg + "." + fn.Name.Name
			if fn.Recv != nil {
				if fn.Name.Name == "String" || fn.Name.Name == "Error" {
					continue
				}
				name = pkg + "." + recvName(fn.Recv.List[0].Type) + "." + fn.Name.Name
			}
			declared[name] = fset.Position(fn.Pos()).String()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return declared
}

// recvName renders a receiver type as the linker names it: T or (*T),
// without type parameters.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(x.X) + ")"
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.ParenExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
