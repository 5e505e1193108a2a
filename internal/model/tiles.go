package model

import "cais/internal/kernel"

// Sharded is a sequence-sharded tensor handle: row block mi lives on
// Owner(mi); its tile publishes at the owner when the block's data is
// final (e.g. after a ReduceScatter or a sharded LN).
type Sharded struct {
	Buf    int
	MTiles int
	P      int // TP degree
}

// Owner maps a row block to the GPU holding it. Ownership is block-cyclic
// (round-robin): consecutive row blocks live on different GPUs, which
// spreads concurrent merge sessions across the switch ports of different
// home GPUs — the load balance the paper's 40 KB/port bound relies on.
func (s Sharded) Owner(mi int) int {
	if s.P <= 1 {
		return 0
	}
	return mi % s.P
}

// Tile is the global readiness tile for row block mi.
func (s Sharded) Tile(mi int) kernel.Tile {
	return kernel.Tile{Buf: s.Buf, Idx: mi}
}

// Gathered is a per-GPU replicated tensor handle: each GPU holds (or is
// receiving) a local copy of every row block; tile (mi, g) publishes when
// GPU g's copy of block mi is locally available.
type Gathered struct {
	Buf    int
	MTiles int
	P      int
}

// Tile is GPU g's local-copy readiness tile for row block mi.
func (g Gathered) Tile(mi, gpu int) kernel.Tile {
	return kernel.Tile{Buf: g.Buf, Idx: mi*g.P + gpu}
}

// LocalGrid is a per-GPU tile grid (column-parallel GEMM outputs,
// row-parallel GEMM partials): tile (mi, ni, g) publishes when GPU g's
// block is computed locally.
type LocalGrid struct {
	Buf    int
	MTiles int
	NTiles int
	P      int
}

// Tile is GPU g's readiness tile for block (mi, ni).
func (l LocalGrid) Tile(mi, ni, gpu int) kernel.Tile {
	return kernel.Tile{Buf: l.Buf, Idx: (mi*l.NTiles+ni)*l.P + gpu}
}

// RowTiles lists all of GPU g's tiles in row mi. With a non-nil cache the
// slice is interned: every kernel iteration asking for the same row set
// shares one immutable backing array instead of allocating a fresh one
// (kernel Work generators re-request identical sets millions of times per
// sweep point). A nil cache allocates fresh, for callers outside a run.
func (l LocalGrid) RowTiles(mi, gpu int, c *TileCache) []kernel.Tile {
	key := tileSetKey{kind: setRow, buf: l.Buf, a: mi, b: gpu}
	if s, ok := c.lookup(key); ok {
		return s
	}
	out := make([]kernel.Tile, 0, l.NTiles)
	for ni := 0; ni < l.NTiles; ni++ {
		out = append(out, l.Tile(mi, ni, gpu))
	}
	return c.store(key, out)
}

// PeerTiles lists block (mi, ni) across every GPU of the grid, interned
// like RowTiles (the pull-mode ReduceScatter gates on all P partials).
func (l LocalGrid) PeerTiles(mi, ni int, c *TileCache) []kernel.Tile {
	key := tileSetKey{kind: setPeers, buf: l.Buf, a: mi, b: ni}
	if s, ok := c.lookup(key); ok {
		return s
	}
	out := make([]kernel.Tile, 0, l.P)
	for g := 0; g < l.P; g++ {
		out = append(out, l.Tile(mi, ni, g))
	}
	return c.store(key, out)
}

// tileSetKey identifies one deterministic tile set. Buffer IDs are unique
// per machine, so (kind, buf, a, b) can never alias across handles.
type tileSetKey struct {
	kind uint8
	buf  int
	a, b int
}

// Tile-set kinds (tileSetKey.kind).
const (
	setRow uint8 = iota // LocalGrid.RowTiles: a=mi, b=gpu
	setPeers
	setAttn // attention K/V column: a=batch*NTiles+head column, b=gpu
)

// TileCache interns the deterministic tile sets kernel Work generators
// request repeatedly (GEMM input rows, attention K/V columns). Interned
// slices are immutable and deliberately heap-allocated — never
// arena-backed — so a machine-layer arena rewind can't corrupt them; the
// cache is owned by the Builder and dies with the run.
type TileCache struct {
	sets map[tileSetKey][]kernel.Tile
}

func (c *TileCache) lookup(k tileSetKey) ([]kernel.Tile, bool) {
	if c == nil {
		return nil, false
	}
	s, ok := c.sets[k]
	return s, ok
}

func (c *TileCache) store(k tileSetKey, s []kernel.Tile) []kernel.Tile {
	if c == nil {
		return s
	}
	if c.sets == nil {
		c.sets = make(map[tileSetKey][]kernel.Tile)
	}
	c.sets[k] = s
	return s
}
