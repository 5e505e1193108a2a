// Kernel-construction hot-path microbenchmarks. Work generators re-request
// the same deterministic tile sets millions of times per sweep point, so
// the interned lookup must be allocation-free once the cache is warm — the
// benchmark pins that property in addition to timing it, and
// TestRowTilesWarmAllocatesNothing pins it in every test run.
package model

import (
	"testing"

	"cais/internal/kernel"
)

// warmRowTiles returns a builder whose cache has interned every (row, gpu)
// set of a 4096x4096 grid, so each later lookup is one map probe.
func warmRowTiles(tb testing.TB) (*Builder, Tensor) {
	bl := testBuilder(tb)
	grid := bl.NewLocalGrid(4096, 4096)
	for mi := 0; mi < grid.MTiles; mi++ {
		for g := 0; g < bl.P; g++ {
			bl.RowTiles(grid, mi, g)
		}
	}
	return bl, grid
}

// BenchmarkRowTiles measures a warmed interned row-set lookup through the
// Builder cache: one map probe, zero allocations.
func BenchmarkRowTiles(b *testing.B) {
	bl, grid := warmRowTiles(b)
	if got := testing.AllocsPerRun(100, func() {
		_ = bl.RowTiles(grid, 1, 0)
	}); got != 0 {
		b.Fatalf("warmed RowTiles allocates %.2f/op, want 0", got)
	}
	var sink []kernel.Tile
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sink = bl.RowTiles(grid, i%grid.MTiles, i%bl.P)
	}
	_ = sink
}

// TestRowTilesWarmAllocatesNothing runs BenchmarkRowTiles' warmed lookup,
// so the 0 allocs/op pin holds in every test run.
func TestRowTilesWarmAllocatesNothing(t *testing.T) {
	bl, grid := warmRowTiles(t)
	if got := testing.AllocsPerRun(100, func() {
		_ = bl.RowTiles(grid, 1, 0)
	}); got != 0 {
		t.Fatalf("warmed RowTiles allocates %.2f/op, want 0", got)
	}
}
