package experiments

import (
	"strings"
	"testing"

	"cais/internal/strategy"
)

func TestRegistryCoversEveryTableAndFigure(t *testing.T) {
	want := []string{"table1", "fig2", "fig11", "fig12", "fig13a", "fig13b",
		"fig14", "fig15", "fig16", "fig17", "fig18", "table2", "area", "fig10",
		"ablation-eviction", "ablation-sideband", "ablation-granularity",
		"resilience", "serving"}
	reg := Registry()
	for _, id := range want {
		if _, ok := reg[id]; !ok {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if len(reg) != len(want) {
		t.Errorf("registry has %d entries, want %d", len(reg), len(want))
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	if _, err := Run("fig99", Quick()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable1ListsModels(t *testing.T) {
	out := Table1()
	for _, want := range []string{"Mega-GPT-4B", "Mega-GPT-8B", "LLaMA-7B", "4096", "11264"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFig2QuickShowsCommGrowth(t *testing.T) {
	r, err := Fig2(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatal("too few points")
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	// Communication relative to computation must grow with GPU count.
	if last.Ratio <= first.Ratio {
		t.Errorf("comm/compute ratio did not grow: %v -> %v", first.Ratio, last.Ratio)
	}
	if !strings.Contains(r.Render(), "comm/compute") {
		t.Error("render missing header")
	}
}

func TestFig11QuickCAISWins(t *testing.T) {
	r, err := Fig11(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, base := range []string{"TP-NVLS", "SP-NVLS", "LADM"} {
		if r.Geomean[base] <= 1.0 {
			t.Errorf("CAIS does not beat %s: geomean %.2f", base, r.Geomean[base])
		}
	}
	out := r.Render()
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "CAIS-Base") {
		t.Error("render incomplete")
	}
}

func TestFig12QuickRuns(t *testing.T) {
	r, err := Fig12(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) == 0 {
		t.Fatal("no rows")
	}
	if r.Geomean["TP-NVLS"] <= 1.0 {
		t.Errorf("sub-layer geomean vs TP-NVLS = %.2f, want > 1", r.Geomean["TP-NVLS"])
	}
}

func TestFig13aCoordinationShrinksTable(t *testing.T) {
	r, err := Fig13a(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		if row.CoordKB > row.UncoordKB {
			t.Errorf("%s/%s: coordinated table %.1fKB larger than uncoordinated %.1fKB",
				row.Model, row.SubLayer, row.CoordKB, row.UncoordKB)
		}
	}
	if r.ReductionPct <= 0 {
		t.Errorf("reduction = %.1f%%, want positive", r.ReductionPct)
	}
}

func TestFig13bCoordinationReducesWaiting(t *testing.T) {
	r, err := Fig13b(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 ablation steps", len(r.Rows))
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	if last.SkewUS >= first.SkewUS {
		t.Errorf("waiting time did not drop: %.1fus -> %.1fus", first.SkewUS, last.SkewUS)
	}
}

func TestFig14CAISToleratesSmallTables(t *testing.T) {
	r, err := Fig14(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	smallest, largest := r.Rows[0], r.Rows[len(r.Rows)-1]
	// CAIS at the smallest table must retain more of its large-table
	// performance than the uncoordinated variant retains of its own.
	caisRetention := smallest.CAIS / largest.CAIS
	uncRetention := smallest.Uncoord / largest.Uncoord
	if caisRetention < uncRetention {
		t.Errorf("CAIS retention %.2f < uncoordinated %.2f", caisRetention, uncRetention)
	}
}

func TestFig15UtilizationLadder(t *testing.T) {
	r, err := Fig15(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgBase <= 0 || r.AvgCAIS <= 0 {
		t.Fatal("zero utilization")
	}
	if r.AvgCAIS > 100 || r.AvgBase > 100 {
		t.Fatal("utilization above 100%")
	}
}

func TestFig16ProducesSeries(t *testing.T) {
	r, err := Fig16(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("series = %d, want 3", len(r.Series))
	}
	for _, s := range r.Series {
		if len(s.Util) == 0 {
			t.Errorf("series %s empty", s.Name)
		}
		for _, u := range s.Util {
			if u < 0 || u > 1 {
				t.Errorf("series %s utilization %v out of range", s.Name, u)
			}
		}
	}
}

func TestFig17PerGPUThroughputStable(t *testing.T) {
	r, err := Fig17(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 2 {
		t.Fatal("too few points")
	}
	if r.Rows[0].CAIS != 1.0 {
		t.Errorf("first point not normalized: %v", r.Rows[0].CAIS)
	}
	last := r.Rows[len(r.Rows)-1]
	if last.CAIS < 0.5 {
		t.Errorf("per-GPU throughput collapsed at scale: %.2f", last.CAIS)
	}
}

func TestFig18ValidationError(t *testing.T) {
	r, err := Fig18(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if r.AvgErr > 25 {
		t.Errorf("avg validation error %.1f%%, want within 25%% in quick mode", r.AvgErr)
	}
	for _, row := range r.Rows {
		if row.NVLSGain <= 1.0 {
			t.Errorf("%dMB: NVLS not faster than ring (gain %.2f)", row.SizeMB, row.NVLSGain)
		}
	}
}

func TestTable2SpeedupsConsistent(t *testing.T) {
	r, err := Table2(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Speedup <= 0.9 {
			t.Errorf("%s: CAIS speedup %.2f over TP-NVLS too low", row.Setup, row.Speedup)
		}
	}
	full, half := r.Rows[0].Speedup, r.Rows[1].Speedup
	if diff := full/half - 1; diff > 0.25 || diff < -0.25 {
		t.Errorf("scaled-down setup diverges: full %.2f vs half %.2f", full, half)
	}
}

func TestFig10DirectionalTraffic(t *testing.T) {
	r, err := Fig10(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.UpGB <= 0 || row.DownGB <= 0 {
			t.Errorf("%s: zero directional traffic", row.Strategy)
		}
		if row.Imbalance < 0 || row.Imbalance > 1 {
			t.Errorf("%s: imbalance %v out of range", row.Strategy, row.Imbalance)
		}
	}
}

func TestAblationSidebandShowsHoLBlocking(t *testing.T) {
	r, err := AblationSideband(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	on, off := r.Rows[0], r.Rows[1]
	if off.Elapsed <= on.Elapsed {
		t.Errorf("disabling the sideband should slow CAIS: %v vs %v", off.Elapsed, on.Elapsed)
	}
	if off.SkewUS <= on.SkewUS {
		t.Errorf("disabling the sideband should raise arrival skew: %.1f vs %.1f", off.SkewUS, on.SkewUS)
	}
}

func TestAblationEvictionLRUCompetitive(t *testing.T) {
	r, err := AblationEviction(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	lru := r.Rows[0].Elapsed
	for _, row := range r.Rows[1:] {
		if float64(lru) > 1.1*float64(row.Elapsed) {
			t.Errorf("LRU (%v) should be within 10%% of %s (%v)", lru, row.Variant, row.Elapsed)
		}
	}
}

func TestAblationGranularityStableSpeedup(t *testing.T) {
	r, err := AblationGranularity(cached(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r.Rows {
		// SlowdownPct holds the CAIS-over-TP-NVLS margin here.
		if row.SlowdownPct <= 0 {
			t.Errorf("%s: CAIS margin over TP-NVLS %.1f%%, want positive", row.Variant, row.SlowdownPct)
		}
	}
}

func TestAreaRenders(t *testing.T) {
	out := Area()
	if !strings.Contains(out, "merge units") || !strings.Contains(out, "synchronizer") {
		t.Errorf("area output incomplete:\n%s", out)
	}
}

// Render coverage: every result type must produce a titled, populated
// table (quick fidelity).
func TestAllRendersPopulated(t *testing.T) {
	c := cached(t)
	cases := []struct {
		id   string
		want []string
	}{
		{"fig2", []string{"Fig. 2", "GPUs", "comm/compute"}},
		{"fig10", []string{"Fig. 10", "G2S", "S2G", "CAIS"}},
		{"fig13a", []string{"Fig. 13a", "reduction"}},
		{"fig13b", []string{"Fig. 13b", "throttling"}},
		{"fig14", []string{"Fig. 14", "Table (KB)"}},
		{"fig16", []string{"Fig. 16", "CAIS-Base", "%"}},
		{"fig18", []string{"Fig. 18", "avg", "algbw"}},
		{"table2", []string{"Table II", "Full", "Half"}},
		{"ablation-eviction", []string{"eviction", "lru", "mru"}},
		{"ablation-granularity", []string{"granularity", "KB requests"}},
	}
	for _, tc := range cases {
		t.Run(tc.id, func(t *testing.T) {
			out, err := Run(tc.id, c)
			if err != nil {
				t.Fatal(err)
			}
			for _, w := range tc.want {
				if !strings.Contains(out, w) {
					t.Errorf("%s render missing %q:\n%s", tc.id, w, out)
				}
			}
		})
	}
}

// TestFailingPointErrorNamesItsLabel: a sweep whose every point fails
// returns the lowest-index point's error, prefixed with that point's
// label, at any worker count: a grid (fig14), a one-dimensional sweep
// (fig13b) and the speedup study (fig11).
func TestFailingPointErrorNamesItsLabel(t *testing.T) {
	cases := []struct{ id, label string }{
		{"fig14", "fig14/40KB/CAIS"},
		{"fig13b", "fig13b/no coordination"},
		{"fig11", "fig11/" + quickModel().Name + "/inference/" + strategy.All()[0].Name},
	}
	for _, workers := range []int{1, 2} {
		for _, tc := range cases {
			c := Quick()
			c.Workers = workers
			c.HW.NumGPUs = 0 // fails hardware validation at every point
			_, err := Run(tc.id, c)
			if err == nil || !strings.HasPrefix(err.Error(), tc.label+": ") {
				t.Errorf("%s at %d workers: error %v, want one beginning %q", tc.id, workers, err, tc.label+": ")
			}
		}
	}
}

func TestFig17RenderAndFig15Render(t *testing.T) {
	c := cached(t)
	r15, err := Fig15(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r15.Render(), "average") {
		t.Error("fig15 render missing average row")
	}
	r17, err := Fig17(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r17.Render(), "CoCoNet-NVLS") {
		t.Error("fig17 render missing baseline column")
	}
}
