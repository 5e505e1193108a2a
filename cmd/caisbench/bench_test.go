package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"
	"time"

	"cais/internal/config"
	"cais/internal/experiments"
	"cais/internal/memo"
	"cais/internal/metrics"
	"cais/internal/strategy"
)

// TestLayerHotMatchesGolden runs one untraced and one traced pass of
// layer-hot at the default seed: both must reproduce the goldens, and the
// traced one must feed every per-layer metric.
func TestLayerHotMatchesGolden(t *testing.T) {
	w, _ := workloadNamed("layer-hot")
	r, err := newRunner(w, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	r.chk.check(r.pass(nil))
	rec := newRecorder()
	r.chk.check(r.pass(rec))
	if r.chk.failed > 0 || r.chk.attempted != 4 {
		t.Fatalf("%d of %d ops failed: %v", r.chk.failed, r.chk.attempted, r.chk.failures)
	}

	one := []passStats{{wall: 1, cpu: 1}}
	v := layerValues(rec, one, one, map[string]int64{"sim": 3, "gpu": 1})
	if len(v) != len(layerDecls) {
		t.Errorf("layerValues computed %d metrics, layerDecls declares %d", len(v), len(layerDecls))
	}
	for _, d := range layerDecls {
		if _, ok := v[d.name]; !ok {
			t.Errorf("per-layer metric %s is declared but not computed", d.name)
		}
	}
	if v["host.sim_pct"] != 75 || v["sim.events"] <= 0 || v["nvswitch.merge_ops"] <= 0 {
		t.Errorf("host.sim_pct = %v, sim.events = %v, nvswitch.merge_ops = %v; want 75 and positive counts",
			v["host.sim_pct"], v["sim.events"], v["nvswitch.merge_ops"])
	}
}

// TestGPUScalingReplicatesFig17 fills a memo cache with experiments.Fig17
// in quick mode, then looks up fig17Rows' points at the same hardware,
// model and GPU counts in it: every lookup must hit, so that gpu-scaling
// builds the points Fig. 17 simulates, only smaller.
func TestGPUScalingReplicatesFig17(t *testing.T) {
	c := experiments.Quick()
	c.Memo = memo.NewCache()
	if _, err := experiments.Fig17(c); err != nil {
		t.Fatal(err)
	}
	rows, err := fig17Rows(c.HW, config.LLaMA7B(), []int{4, 8})
	if err != nil {
		t.Fatal(err)
	}
	lookups, misses := c.Memo.Lookups(), c.Memo.Misses()
	for _, row := range rows {
		for _, p := range row {
			if _, err := memo.RunLayers(c.Memo, p.hw, p.spec, p.cfg, false, 1, strategy.Options{}); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
		}
	}
	if got := c.Memo.Lookups() - lookups; got != 4 {
		t.Errorf("%d lookups, want 4", got)
	}
	if got := c.Memo.Misses() - misses; got != 0 {
		t.Errorf("%d of 4 points missed the cache Fig17 filled", got)
	}
}

// TestRecorderFromSweepWorkers records from two sweep workers at once, as
// gpu-scaling's traced passes do; run it under -race.
func TestRecorderFromSweepWorkers(t *testing.T) {
	rec := newRecorder()
	snap := metrics.Snapshot{Metrics: []metrics.Metric{
		{Name: "sim.steps", Value: 10},
		{Name: "nvswitch.plane1.evictions", Value: 2},
		{Name: "pool.gpu.gets", Value: 4},
	}}
	ops := mapOps(rec, 8, 2, func(i int) []op {
		rec.point(time.Millisecond, snap)
		rec.memo(1, 0)
		return []op{{name: fmt.Sprint(i)}}
	})
	if len(ops) != 8 || len(rec.pointMs) != 8 || rec.memoLookups != 8 {
		t.Fatalf("%d ops, %d points, %v lookups; want 8 each", len(ops), len(rec.pointMs), rec.memoLookups)
	}
	for name, want := range map[string]float64{"sim.steps": 80, "nvswitch.evictions": 16, "pool.gets": 32, "pool.gpu.gets": 32} {
		if got := rec.tele[name]; got != want {
			t.Errorf("tele[%s] = %v, want %v", name, got, want)
		}
	}
	if rec.sweepCapacity <= 0 || rec.sweepBusy <= 0 {
		t.Errorf("sweep busy %v of capacity %v, want both positive", rec.sweepBusy, rec.sweepCapacity)
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload tables in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type jsonDecl struct{ Name, Unit, Better string }
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []jsonDecl `json:"end_to_end"`
		PerLayer  []jsonDecl `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, workloadNames())
	}
	for _, c := range []struct {
		key   string
		json  []jsonDecl
		decls []decl
	}{{"end_to_end", b.EndToEnd, endToEndDecls}, {"per_layer", b.PerLayer, layerDecls}} {
		var got []decl
		for _, d := range c.json {
			got = append(got, decl{d.Name, d.Unit, d.Better})
		}
		if !slices.Equal(got, c.decls) {
			t.Errorf("BENCHMARK.json %s:\n  %v\nprogram declares:\n  %v", c.key, got, c.decls)
		}
	}
}
