package main

import (
	"os"
	"strings"
	"testing"
)

// TestFoldTraces folds a checked-in `go tool pprof -traces -unit=ns`
// excerpt. Each sample exercises one rule of bucketOf.
func TestFoldTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	split, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	const ms = 1_000_000
	want := map[string]int64{
		"sim":     40 * ms, // a sim leaf
		"machine": 20 * ms, // a runtime map lookup charged to its caller, PublishTiles
		"gc":      40 * ms, // an allocation assist under mallocgc, and a background mark worker
		"malloc":  10 * ms, // mallocgc's own work
		"model":   10 * ms, // behind a label line, under a generic sweep frame
		"other":   20 * ms, // the scheduler; config, which is no layer, called by the harness
	}
	for _, b := range cpuBuckets {
		if split[b] != want[b] {
			t.Errorf("bucket %s = %d ns, want %d", b, split[b], want[b])
		}
	}
	if len(split) != len(want) {
		t.Errorf("fold produced buckets %v, want %v", split, want)
	}
}

func TestFoldTracesRejectsOtherUnits(t *testing.T) {
	in := "Type: cpu\n-----------+-----\n      10ms   cais/internal/sim.(*Engine).Run\n-----------+-----\n"
	if _, err := foldTraces(strings.NewReader(in)); err == nil {
		t.Fatal("foldTraces accepted a sample not in ns")
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cais/internal/sim.(*Engine).Run":                                 "cais/internal/sim",
		"cais/internal/machine.(*Machine).PublishTiles.func1":             "cais/internal/machine",
		"cais/internal/sweep.Map[go.shape.struct { cais/x.T int }].func1": "cais/internal/sweep",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/maps.ctrlGroup.matchH2":   "internal/runtime/maps",
		"type:.hash.cais/internal/model.tileSetKey": "type:.hash.cais/internal/model",
		"main.main":   "main",
		"aeshashbody": "aeshashbody",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
