package model

import (
	"fmt"

	"cais/internal/kernel"
	"cais/internal/machine"
	"cais/internal/noc"
	"cais/internal/pool"
)

// Builder lowers operators into kernels on a machine. It owns the tile
// buffer and address-space allocation so kernels built for the same
// machine never collide, plus the per-run allocation state kernel Work
// generators draw descriptor slices from: the machine's tile/access
// arenas and one tile-set intern cache (DESIGN.md §10).
type Builder struct {
	M    *machine.Machine
	Elem int64 // element width in bytes
	P    int   // TP degree (machine GPU count)

	tiles *pool.Arena[kernel.Tile]
	accs  *pool.Arena[kernel.Access]
	sets  map[tileSetKey][]kernel.Tile // see tileSet
}

// NewBuilder creates a builder for a machine.
func NewBuilder(m *machine.Machine) *Builder {
	return &Builder{
		M: m, Elem: int64(m.HW.ElemBytes), P: m.HW.NumGPUs,
		tiles: m.TileArena(), accs: m.AccessArena(), sets: map[tileSetKey][]kernel.Tile{},
	}
}

// Tile1 is the arena-backed single-tile list — the replacement for the
// []kernel.Tile{t} literals on the kernel-construction hot path.
func (b *Builder) Tile1(t kernel.Tile) []kernel.Tile { return b.tiles.One(t) }

// newTensor allocates an mT x nT-block tensor held in p copies.
func (b *Builder) newTensor(mT, nT, p int) Tensor {
	return Tensor{Buf: b.M.NewBuffer(mT * nT * p), MTiles: mT, NTiles: nT, P: p}
}

// NewSharded allocates a sequence-sharded activation of rows rows: one
// copy, each row block at its owner.
func (b *Builder) NewSharded(rows int) Tensor { return b.newTensor(MTiles(rows), 1, 1) }

// NewGathered allocates a replicated activation: every GPU holds a copy
// of every row block.
func (b *Builder) NewGathered(rows int) Tensor { return b.newTensor(MTiles(rows), 1, b.P) }

// NewLocalGrid allocates a rows x cols tile grid with a copy per GPU.
func (b *Builder) NewLocalGrid(rows, cols int) Tensor {
	return b.newTensor(MTiles(rows), NTiles(cols), b.P)
}

// NewParts allocates reduced parts: one copy, block (mi, ni) at the row
// owner.
func (b *Builder) NewParts(rows, cols int) Tensor { return b.newTensor(MTiles(rows), NTiles(cols), 1) }

// owner maps a row block to the GPU holding it in a one-copy tensor.
// Ownership is block-cyclic (round-robin): consecutive row blocks live on
// different GPUs, which spreads concurrent merge sessions across the
// switch ports of different home GPUs — the load balance the paper's
// 40 KB/port bound relies on.
func (b *Builder) owner(mi int) int { return mi % b.P }

// gemmTB fills the compute cost of one 128x128xK GEMM thread block.
func (b *Builder) gemmTB(k int, scale float64) (flops float64, localBytes int64) {
	flops = 2 * float64(TileM) * float64(TileN) * float64(k) * scale
	bytes := (int64(TileM)*int64(k) + int64(k)*int64(TileN) + int64(TileM)*int64(TileN)) * b.Elem
	return flops, bytes / l2Reuse
}

// rowBytes is the size of one TileM-row block of a width-cols tensor.
func (b *Builder) rowBytes(cols int) int64 {
	return int64(TileM) * int64(cols) * b.Elem
}

// tileBytes is the size of one TileM x TileN block.
func (b *Builder) tileBytes() int64 {
	return int64(TileM) * int64(TileN) * b.Elem
}

// group decides whether GPU g's TB tb of a fused CAIS kernel joins its TB
// group, the TBs sharing its blockIdx across GPUs (Sec. III-B-1), and how
// many GPUs' TBs join. A TB whose access goes through the switch joins.
// The owner's TB accesses its data locally: it joins only under TB-aware
// throttling, which locks every GPU to its group, and only when P > 1
// gives it a peer. A TB that does not join gets (-1, 0).
func (b *Builder) group(tb, owner, g int, coord kernel.Coordination) (group, peers int) {
	if owner == g && !(coord.Throttle && b.P > 1) {
		return -1, 0
	}
	if coord.Throttle {
		return tb, b.P
	}
	return tb, b.P - 1
}

// InTiles wires a consumer kernel's TB inputs; implementations close over
// the producer tensors chosen by the strategy.
type InTiles func(gpu, mi, ni int) []kernel.Tile

// GEMM builds a pure-local GEMM kernel (column-parallel GEMMs whose input
// is already local, weight-gradient GEMMs, attention projections):
// M x nLocal output, contraction over k.
func (b *Builder) GEMM(name string, m, nLocal, k int, scale float64, in InTiles, out Tensor) *kernel.Kernel {
	mT, nT := MTiles(m), NTiles(nLocal)
	flops, localBytes := b.gemmTB(k, scale)
	return &kernel.Kernel{
		Name: name, Kind: kernel.KindGEMM, Grid: mT * nT,
		Work: func(g, tb int) kernel.TBDesc {
			mi, ni := tb/nT, tb%nT
			return kernel.TBDesc{
				Flops: flops, LocalBytes: localBytes, Group: -1,
				In:  in(g, mi, ni),
				Out: b.tiles.One(out.Tile(mi, ni, g)),
			}
		},
	}
}

// GatherMode selects how a fused gather-GEMM brings remote rows in.
type GatherMode int

const (
	// GatherCAIS uses ld.cais merged loads (compute-aware in-switch
	// computing): the switch fetches each row block once and replicates
	// it to all requesters.
	GatherCAIS GatherMode = iota
	// GatherPerTB uses plain loads issued by every consuming TB (LADM:
	// locality-aware TB scheduling without in-switch computing or
	// gather staging) — remote operand rows are re-fetched by each
	// column tile's TB.
	GatherPerTB
)

// FusedAGGEMM builds the compute-aware AG-GEMM kernel (Fig. 1k): the GEMM
// reads remote rows directly, following its memory-semantic requirement.
// TB (mi, 0) is the block's loader: it issues the (mergeable) load for row
// block mi and publishes the local copy; TBs (mi, ni>0) consume the copy.
// src holds the gathered operand (width k); out is the M x nLocal result.
// coord applies to GatherCAIS only; the loaders form the TB groups.
func (b *Builder) FusedAGGEMM(name string, src Tensor, m, nLocal, k int, scale float64,
	mode GatherMode, coord kernel.Coordination, out Tensor) *kernel.Kernel {

	mT, nT := MTiles(m), NTiles(nLocal)
	if src.MTiles != mT {
		panic(fmt.Sprintf("model: %s: src has %d row blocks, GEMM needs %d", name, src.MTiles, mT))
	}
	rowBytes := b.rowBytes(k)
	addrsPerRow := b.M.HW.RequestChunks(rowBytes)
	// The loaders' address depends only on blockIdx (row block = blockIdx
	// / nT), so it is GPU-invariant and lowers to a merged ld.cais.
	pattern := kernel.Pattern{
		Sem: kernel.SemRead, Base: b.M.AllocAddrs(mT * addrsPerRow),
		Div: nT, Stride: uint64(addrsPerRow),
	}
	copies := b.NewGathered(m)
	if mode == GatherPerTB {
		// Every TB loads from its own per-(GPU, TB) range: the address
		// depends on gpuID, so the access stays a plain ld. The loaders'
		// range stays allocated, so later addresses, which pick each
		// packet's switch plane, do not shift with the mode.
		pattern = kernel.Pattern{
			Sem: kernel.SemRead, Base: b.M.AllocAddrs(b.P * mT * nT * addrsPerRow),
			Stride: uint64(addrsPerRow), PerGPU: uint64(mT * nT * addrsPerRow),
		}
	}
	loadOp, merged := pattern.Lower()
	if !merged {
		coord = kernel.Coordination{}
	}
	flops, localBytes := b.gemmTB(k, scale)
	return &kernel.Kernel{
		Name: name, Kind: kernel.KindGEMM, Grid: mT * nT, Coord: coord,
		Work: func(g, tb int) kernel.TBDesc {
			mi, ni := tb/nT, tb%nT
			d := kernel.TBDesc{
				Flops: flops, LocalBytes: localBytes, Group: -1,
				Out: b.tiles.One(out.Tile(mi, ni, g)),
			}
			owner := b.owner(mi)
			if !merged {
				// Every TB fetches its operand rows itself, with no copy
				// staging — the redundant-traffic mode.
				d.Pre = b.accs.One(kernel.Access{
					Sem: kernel.SemRead, Mode: loadOp, Local: owner == g,
					Addr: pattern.AddrAt(g, tb), Home: owner, Bytes: rowBytes,
				})
				d.In = b.tiles.One(src.Tile(mi, 0, g))
				return d
			}
			if ni != 0 {
				d.In = b.tiles.One(copies.Tile(mi, 0, g))
				return d
			}
			d.Group, d.GroupPeers = b.group(tb, owner, g, coord)
			acc := kernel.Access{
				Sem: kernel.SemRead, Addr: pattern.AddrAt(g, tb), Home: owner, Bytes: rowBytes,
				Publish: b.tiles.One(copies.Tile(mi, 0, g)),
			}
			if owner == g {
				acc.Mode = noc.OpLoad
				acc.Local = true
			} else {
				acc.Mode = loadOp
				acc.Expected = b.P - 1
			}
			d.Pre = b.accs.One(acc)
			d.In = b.tiles.One(src.Tile(mi, 0, g))
			return d
		},
	}
}

// ReduceMode selects how a fused GEMM-reduce writes its partial tiles out.
type ReduceMode int

const (
	// ReduceCAIS uses red.cais merged reductions: the switch accumulates
	// all contributions and writes one result to the row owner.
	ReduceCAIS ReduceMode = iota
	// ReduceP2PStore pushes each partial tile directly to the row owner,
	// which reduces locally (T3's DMA track-and-trigger).
	ReduceP2PStore
	// ReduceNVLSPush pushes partials through the NVLS unit's multimem.red
	// (T3-NVLS's DMA-based NVLS design): in-switch reduction with the
	// pre-existing NVLS buffers, but no merge-table/coordination machinery.
	ReduceNVLSPush
	// ReduceCAISBroadcast uses broadcast red.cais reductions, the
	// compute-aware GEMM-AR of the paper's Fig. 1(h) combination table (an
	// extension beyond the evaluated SP pipelines): the merge unit
	// accumulates all P contributions and writes the reduced tile to every
	// GPU's replica.
	ReduceCAISBroadcast
)

// FusedGEMMReduce builds the compute-aware GEMM-reduce kernel: each TB
// computes a partial output tile and immediately issues its reduction,
// following the write semantics of the computation. n is the full output
// width; kLocal the per-GPU contraction shard.
//
// Under ReduceCAISBroadcast every GPU contributes through the switch, out
// has a copy per GPU, and out.Tile(mi, ni, g) publishes at GPU g when its
// reduced copy lands. The other modes reduce toward the row owner, which
// contributes its own partial locally: out is the one-copy parts tensor,
// and its tile publishes at the owner once all P contributions have
// landed. coord applies to the CAIS modes only.
func (b *Builder) FusedGEMMReduce(name string, m, n, kLocal int, scale float64, in InTiles,
	mode ReduceMode, coord kernel.Coordination, out Tensor) *kernel.Kernel {

	mT, nT := MTiles(m), NTiles(n)
	bcast := mode == ReduceCAISBroadcast
	outP := 1
	if bcast {
		outP = b.P
	}
	if out.MTiles != mT || out.NTiles != nT || out.P != outP {
		panic(fmt.Sprintf("model: %s: out tensor mismatch", name))
	}
	tileBytes := b.tileBytes()
	addrsPerTile := b.M.HW.RequestChunks(tileBytes)
	// One address range per output tile, indexed by blockIdx alone: the
	// reduction is GPU-invariant and lowers to a merged red.cais.
	pattern := kernel.Pattern{
		Sem: kernel.SemReduce, Base: b.M.AllocAddrs(mT * nT * addrsPerTile),
		Stride: uint64(addrsPerTile),
	}
	redOp := noc.OpStore
	switch mode {
	case ReduceCAIS, ReduceCAISBroadcast:
		redOp, _ = pattern.Lower()
	case ReduceNVLSPush:
		redOp = noc.OpMultimemRed
		coord = kernel.Coordination{}
	default:
		// ReduceP2PStore keeps plain stores.
		coord = kernel.Coordination{}
	}

	flops, localBytes := b.gemmTB(kLocal, scale)
	return &kernel.Kernel{
		Name: name, Kind: kernel.KindGEMM, Grid: mT * nT, Coord: coord,
		Work: func(g, tb int) kernel.TBDesc {
			mi, ni := tb/nT, tb%nT
			owner := b.owner(mi)
			acc := kernel.Access{
				Sem: kernel.SemReduce, Mode: redOp, Addr: pattern.AddrAt(g, tb),
				Home: owner, Bytes: tileBytes, TileNeed: b.P,
			}
			// Every GPU's TB contributes to a broadcast through the
			// switch, so all P join the group.
			group, peers := tb, b.P
			if bcast {
				// Receiver r's replica tile is out.Tile(mi, ni, r) —
				// stride 1 in the GPU index, so the closure-free
				// PublishEach form applies.
				acc.Expected, acc.Broadcast = b.P, true
				acc.PublishEach = out.Tile(mi, ni, 0)
			} else {
				acc.Publish = b.tiles.One(out.Tile(mi, ni, 0))
				if owner == g {
					acc.Mode, acc.Local = noc.OpStore, true
				} else {
					acc.Expected = b.P - 1
				}
				group, peers = b.group(tb, owner, g, coord)
			}
			return kernel.TBDesc{
				Flops: flops, LocalBytes: localBytes,
				Group: group, GroupPeers: peers,
				In:   in(g, mi, ni),
				Post: b.accs.One(acc),
			}
		},
	}
}

// RowOp builds a row-wise kernel (LN, GeLU, dropout/add), one TB per
// block of out, each moving bytes of HBM traffic. TB (mi, ni) on GPU g
// reads in(g, mi, ni) and publishes GPU g's copy of the block; on a
// one-copy output only the row owner's TB works.
func (b *Builder) RowOp(name string, kind kernel.Kind, bytes int64, in InTiles, out Tensor) *kernel.Kernel {
	nT := out.NTiles
	return &kernel.Kernel{
		Name: name, Kind: kind, Grid: out.MTiles * nT,
		Work: func(g, tb int) kernel.TBDesc {
			mi, ni := tb/nT, tb%nT
			if out.P == 1 && b.owner(mi) != g {
				return kernel.TBDesc{Group: -1}
			}
			return kernel.TBDesc{
				LocalBytes: bytes, Group: -1,
				In:  in(g, mi, ni),
				Out: b.tiles.One(out.Tile(mi, ni, g)),
			}
		},
	}
}

// Attention builds the head-local attention kernel: per (batch, local
// head, query block) TBs computing scores and context against the full
// K/V sequence. qkv is the QKV projection's local output grid (column ni
// indexes heads); out receives the context blocks.
func (b *Builder) Attention(name string, batch, headsLocal, seq, headDim int, scale float64,
	qkv, out Tensor) *kernel.Kernel {

	sT := MTiles(seq)
	grid := batch * headsLocal * sT
	flopsPerTB := 4 * float64(TileM) * float64(seq) * float64(headDim) * scale
	bytesPerTB := (2*int64(seq)*int64(headDim) + int64(TileM)*int64(seq)) * b.Elem / l2Reuse
	return &kernel.Kernel{
		Name: name, Kind: kernel.KindAttention, Grid: grid,
		Work: func(g, tb int) kernel.TBDesc {
			bIdx := tb / (headsLocal * sT)
			h := (tb / sT) % headsLocal
			mi := tb % sT
			ni := h % qkv.NTiles
			// The query block depends on its own QKV rows plus the full
			// K/V column of its head (token rows of this batch element).
			// The column set is shared by every query block of the same
			// (batch, head, gpu), so it interns in the builder's cache.
			in := b.tileSet(tileSetKey{kind: setAttn, buf: qkv.Buf, a: bIdx*qkv.NTiles + ni, b: g}, sT,
				func(mj int) kernel.Tile { return qkv.Tile(bIdx*sT+mj, ni, g) })
			return kernel.TBDesc{
				Flops: flopsPerTB, LocalBytes: bytesPerTB, Group: -1,
				In:  in,
				Out: b.tiles.One(out.Tile(bIdx*sT+mi, h%out.NTiles, g)),
			}
		},
	}
}
