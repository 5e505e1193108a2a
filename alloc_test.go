package cais_test

import (
	"runtime"
	"testing"

	"cais/internal/attrib"
	"cais/internal/experiments"
)

// Allocation ceilings for the three benchmark workloads the pooling
// overhauls target (see DESIGN.md §10). The PR-5 pooling pass halved the
// original baseline (BENCH_20260806.json: Fig17 13.18M, Table2 7.44M,
// Fig13b 4.49M allocs/op); the zero-alloc kernel-construction pass (tile
// arenas, pooled latches and dependency records, interned tile sets, the
// single-slot TB continuation) cut the remainder to under a tenth of the
// original, the dense tile tracker (per-tile slots that keep their
// waiter arrays) trimmed it again, and carrying each access's own
// descriptor as its packets' completion record (no per-access tag) cut
// another seventh. Ceilings sit ~10% above that measurement (Fig17
// 1,042,244 / Table2 556,280 / Fig13b 415,066), so a change that
// reintroduces per-TB, per-access or per-registration allocation trips
// these before it reaches a benchmark diff.
// The ceilings double as the attribution PR's disabled-path guard: none of
// these configs set Config.Attrib or Options.UtilBin, so a change that
// makes the off-by-default observability layer allocate (an eagerly built
// tracer, an unconditional recorder) trips them immediately.
const (
	allocCeilingFig17  = 1_147_000 // measured 1,042,244 + ~10%
	allocCeilingTable2 = 612_000   // measured 556,280 + ~10%
	allocCeilingFig13b = 457_000   // measured 415,066 + ~10%
)

// allocBytesCeilingFig17Attrib bounds the bytes one attributed quick Fig17
// regeneration allocates (Config.Attrib set, so every point records its
// whole trace and builds its report). The tracer keeps its log in
// fixed-size chunks of pointer-free records, so a recorded event is never
// copied again: 419.3 MB measured (stable to 0.1 MB over three runs),
// against 1,071.5 MB while the log was one []trace.Event grown by append.
// The ceiling sits ~10% above, so a change that copies or re-grows the
// event log trips it.
const allocBytesCeilingFig17Attrib = 461 << 20 // measured 419.3 MB + ~10%

// allocsForRun measures one quick-fidelity sequential regeneration.
// Workers is pinned to 1: testing.AllocsPerRun sets GOMAXPROCS to 1, and a
// sequential sweep keeps the measurement free of worker-pool scheduling
// noise.
func allocsForRun(t *testing.T, fn func(c experiments.Config) error) float64 {
	t.Helper()
	cfg := experiments.Quick()
	cfg.Workers = 1
	return testing.AllocsPerRun(1, func() {
		if err := fn(cfg); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocCeilingFig17(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin runs full quick sweeps")
	}
	got := allocsForRun(t, func(c experiments.Config) error {
		_, err := experiments.Fig17(c)
		return err
	})
	t.Logf("Fig17 allocs/run: %.0f (ceiling %d)", got, allocCeilingFig17)
	if got > allocCeilingFig17 {
		t.Errorf("Fig17 allocates %.0f per run, over the pinned ceiling %d", got, allocCeilingFig17)
	}
}

func TestAllocCeilingTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin runs full quick sweeps")
	}
	got := allocsForRun(t, func(c experiments.Config) error {
		_, err := experiments.Table2(c)
		return err
	})
	t.Logf("Table2 allocs/run: %.0f (ceiling %d)", got, allocCeilingTable2)
	if got > allocCeilingTable2 {
		t.Errorf("Table2 allocates %.0f per run, over the pinned ceiling %d", got, allocCeilingTable2)
	}
}

func TestAllocCeilingFig13Coordination(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin runs full quick sweeps")
	}
	got := allocsForRun(t, func(c experiments.Config) error {
		_, err := experiments.Fig13b(c)
		return err
	})
	t.Logf("Fig13b allocs/run: %.0f (ceiling %d)", got, allocCeilingFig13b)
	if got > allocCeilingFig13b {
		t.Errorf("Fig13b allocates %.0f per run, over the pinned ceiling %d", got, allocCeilingFig13b)
	}
}

func TestAllocBytesFig17Attributed(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation pin runs full quick sweeps")
	}
	cfg := experiments.Quick()
	cfg.Workers = 1
	cfg.Attrib = attrib.NewAggregator()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := experiments.Fig17(cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("attributed Fig17 allocates %.1f MB/run (ceiling %d MB)", float64(got)/(1<<20), allocBytesCeilingFig17Attrib>>20)
	if got > allocBytesCeilingFig17Attrib {
		t.Errorf("attributed Fig17 allocates %.1f MB per run, over the pinned ceiling %d MB",
			float64(got)/(1<<20), allocBytesCeilingFig17Attrib>>20)
	}
}
