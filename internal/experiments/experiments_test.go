package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
		"fig11", "fig13", "fig14", "fig15", "fig16",
		"table1", "table2", "table3", "table4", "table5", "table6",
		"table7", "table8", "table9",
		"ext-saa", "ext-lifetime", "ext-thermal", "ext-power",
		"ext-disagg", "ext-sched", "ext-revisit", "ext-fleet", "ext-latency",
		"ext-lossy", "ext-detect", "ext-netsim", "ext-resilience",
		"ext-workload", "ext-optimize", "ext-multishell",
	}
	have := map[string]bool{}
	for _, id := range IDs() {
		have[id] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %s not registered", id)
		}
	}
	if len(IDs()) != len(want) {
		t.Errorf("registry has %d experiments, want %d: %v", len(IDs()), len(want), IDs())
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := RunWorkers(context.Background(), nil, "fig99", 1); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunWorkers(ctx, nil, "fig2", 1); err != context.Canceled {
		t.Errorf("canceled run err = %v, want context.Canceled", err)
	}
	if _, err := RunWorkers(ctx, nil, All, 1); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Errorf("canceled sweep err = %v, want wrapped context.Canceled", err)
	}
}

func TestListMatchesIDs(t *testing.T) {
	infos := List()
	ids := IDs()
	if len(infos) != len(ids) {
		t.Fatalf("List has %d entries, IDs has %d", len(infos), len(ids))
	}
	for i, info := range infos {
		if info.ID != ids[i] {
			t.Errorf("List[%d].ID = %s, want %s", i, info.ID, ids[i])
		}
		if info.Description == "" {
			t.Errorf("%s has no description", info.ID)
		}
	}
}

func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment; skipped in -short")
	}
	tables, err := RunWorkers(context.Background(), nil, All, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) < len(IDs()) {
		t.Fatalf("got %d tables for %d experiments", len(tables), len(IDs()))
	}
	for _, tb := range tables {
		if tb.ID == "" || tb.Title == "" {
			t.Errorf("table missing identity: %+v", tb.Columns)
		}
		if len(tb.Rows) == 0 {
			t.Errorf("%s (%s): no rows", tb.ID, tb.Title)
		}
		for i, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Errorf("%s row %d has %d cells, want %d", tb.ID, i, len(row), len(tb.Columns))
			}
		}
		if tb.String() == "" {
			t.Errorf("%s renders empty", tb.ID)
		}
	}
}

// cell parses an integer table cell, stripping the bottleneck marker.
func cell(t *testing.T, s string) int {
	t.Helper()
	s = strings.TrimSuffix(strings.TrimSpace(s), "*")
	v, err := strconv.Atoi(s)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

func TestFig9HeadlineCells(t *testing.T) {
	tables, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	// Columns: app, then 16 cells; find "1 m/95%".
	col := -1
	for i, c := range tb.Columns {
		if c == "1 m/95%" {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("1 m/95%% column missing: %v", tb.Columns)
	}
	exceed := 0
	for _, row := range tb.Rows {
		if cell(t, row[col]) > 1 {
			exceed++
			if row[0] != "PS" {
				t.Errorf("%s needs %s SµDCs at 1 m/95%%", row[0], row[col])
			}
		}
	}
	if exceed != 1 {
		t.Errorf("%d apps exceed one SµDC at 1 m/95%%, want 1 (PS)", exceed)
	}
}

func TestFig14BeatsFig9Everywhere(t *testing.T) {
	f9, err := Fig9()
	if err != nil {
		t.Fatal(err)
	}
	f14, err := Fig14()
	if err != nil {
		t.Fatal(err)
	}
	r9, r14 := f9[0].Rows, f14[0].Rows
	if len(r9) != len(r14) {
		t.Fatal("row count mismatch")
	}
	for i := range r9 {
		for j := 1; j < len(r9[i]); j++ {
			if cell(t, r14[i][j]) > cell(t, r9[i][j]) {
				t.Errorf("row %s col %d: AI100 (%s) worse than 3090 (%s)",
					r9[i][0], j, r14[i][j], r9[i][j])
			}
		}
	}
}

func TestFig16RedundancyDominatesSoftware(t *testing.T) {
	tables, err := Fig16()
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) != 3 {
		t.Fatalf("Fig 16 has %d panels, want 3", len(tables))
	}
	sw, dual, triple := tables[0], tables[1], tables[2]
	for i := range sw.Rows {
		for j := 1; j < len(sw.Rows[i]); j++ {
			s, d, tr := cell(t, sw.Rows[i][j]), cell(t, dual.Rows[i][j]), cell(t, triple.Rows[i][j])
			if d < s || tr < d {
				t.Errorf("row %s col %d: counts not ordered sw=%d dual=%d triple=%d",
					sw.Rows[i][0], j, s, d, tr)
			}
		}
	}
}

func TestFig15AllGapsZero(t *testing.T) {
	tables, err := Fig15()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tables[0].Rows {
		if row[1] != "0s" {
			t.Errorf("%s has coverage gap %s, want 0s", row[0], row[1])
		}
	}
}

func TestTable8FirstCellMatchesPaper(t *testing.T) {
	tables, err := Table8()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	// First row: 3 m, ED 0 → 9, 94, 941 (paper: 9, 98, 992).
	if tb.Rows[0][2] != "9" {
		t.Errorf("3 m / 0 ED / 1 Gb/s = %s, want 9", tb.Rows[0][2])
	}
}

func TestTable4SARBeatsRGB(t *testing.T) {
	if testing.Short() {
		t.Skip("compression suite is slow")
	}
	tables, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	tb := tables[0]
	if len(tb.Rows) != 2 {
		t.Fatalf("Table 4 rows = %d", len(tb.Rows))
	}
	// Zip column: find by name.
	zipCol := -1
	for i, c := range tb.Columns {
		if c == "Zip" {
			zipCol = i
		}
	}
	if zipCol < 0 {
		t.Fatal("Zip column missing")
	}
	var rgb, sar float64
	if _, err := fmtSscan(tb.Rows[0][zipCol], &rgb); err != nil {
		t.Fatal(err)
	}
	if _, err := fmtSscan(tb.Rows[1][zipCol], &sar); err != nil {
		t.Fatal(err)
	}
	if sar < 10*rgb {
		t.Errorf("SAR Zip ratio %v should dwarf RGB %v", sar, rgb)
	}
	if rgb > 5 {
		t.Errorf("RGB lossless ratio %v implausible (paper < 4)", rgb)
	}
}

// fmtSscan wraps fmt.Sscan to keep the test import list tidy.
func fmtSscan(s string, v *float64) (int, error) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, err
	}
	*v = f
	return 1, nil
}
