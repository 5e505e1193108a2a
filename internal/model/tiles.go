package model

import "cais/internal/kernel"

// Tensor is a tensor tiled into TileM x TileN blocks and held in P copies.
// With one copy, block (mi, ni) lives only at its row owner
// (Builder.owner): a sequence-sharded activation, or the reduced parts of
// a ReduceScatter. With P equal to the TP degree every GPU holds a copy: a
// replicated activation, a column-parallel GEMM's output, a row-parallel
// GEMM's partials, an AllReduce result. Row-wise tensors have one column
// block. Tile (mi, ni, g) publishes when GPU g's copy of the block is
// final.
type Tensor struct {
	Buf    int
	MTiles int
	NTiles int
	P      int // copies: 1, or the TP degree
}

// Tile is GPU g's readiness tile for block (mi, ni); a one-copy tensor
// returns its only tile for every g. It branches rather than dividing:
// it runs in every Work call.
func (t Tensor) Tile(mi, ni, g int) kernel.Tile {
	if t.P == 1 {
		return kernel.Tile{Buf: t.Buf, Idx: mi*t.NTiles + ni}
	}
	return kernel.Tile{Buf: t.Buf, Idx: (mi*t.NTiles+ni)*t.P + g}
}

// Gate is the chunk-level barrier of the software-pipelined overlap
// baselines (CoCoNet, FuseLib): a tensor's row blocks split into
// contiguous chunks, and chunk c's gate tile on GPU g publishes once g's
// copy of every block in the chunk has.
type Gate struct {
	buf, chunks, mTiles, p int
}

// Chunk is the chunk row block mi falls in.
func (gt Gate) Chunk(mi int) int { return mi * gt.chunks / gt.mTiles }

// Tile is chunk c's gate tile on GPU g.
func (gt Gate) Tile(c, g int) kernel.Tile { return kernel.Tile{Buf: gt.buf, Idx: c*gt.p + g} }

// rows is chunk c's row-block range [lo, hi): the blocks mi with
// Chunk(mi) = c.
func (gt Gate) rows(c int) (lo, hi int) {
	at := func(c int) int { return (c*gt.mTiles + gt.chunks - 1) / gt.chunks }
	return at(c), at(c + 1)
}

// tileSetKey identifies one deterministic tile set. Buffer IDs are unique
// per machine, so (kind, buf, a, b) can never alias across tensors.
type tileSetKey struct {
	kind uint8
	buf  int
	a, b int
}

// Tile-set kinds (tileSetKey.kind).
const (
	setRow   uint8 = iota // RowTiles: a=mi, b=gpu
	setPeers              // PeerTiles: a=mi, b=ni
	setAttn               // attention K/V column: a=batch*NTiles+head column, b=gpu
	setChunk              // gate inputs: buf=the gate's, a=chunk, b=gpu
)

// tileSet returns the interned set for key, listing its n tiles with at
// on first use. Kernel Work generators re-request identical sets millions
// of times per sweep point, so every request after the first shares one
// immutable slice. The slices are heap-allocated, never arena-backed, so a
// machine-layer arena rewind cannot corrupt them; the cache dies with its
// Builder.
func (b *Builder) tileSet(key tileSetKey, n int, at func(i int) kernel.Tile) []kernel.Tile {
	if s, ok := b.sets[key]; ok {
		return s
	}
	s := make([]kernel.Tile, n)
	for i := range s {
		s[i] = at(i)
	}
	b.sets[key] = s
	return s
}

// RowTiles lists GPU g's tiles in row mi of t, interned.
func (b *Builder) RowTiles(t Tensor, mi, g int) []kernel.Tile {
	return b.tileSet(tileSetKey{kind: setRow, buf: t.Buf, a: mi, b: g}, t.NTiles,
		func(ni int) kernel.Tile { return t.Tile(mi, ni, g) })
}

// PeerTiles lists block (mi, ni) across every copy of t, interned (the
// pull-mode ReduceScatter gates on all P partials).
func (b *Builder) PeerTiles(t Tensor, mi, ni int) []kernel.Tile {
	return b.tileSet(tileSetKey{kind: setPeers, buf: t.Buf, a: mi, b: ni}, t.P,
		func(g int) kernel.Tile { return t.Tile(mi, ni, g) })
}
