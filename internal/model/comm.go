package model

import (
	"fmt"

	"cais/internal/kernel"
	"cais/internal/noc"
)

// Communication kernel builders. These lower the collective operations the
// baselines rely on: NVLS push/pull collectives (communication-centric
// in-switch computing) and GPU-driven ring collectives (no in-switch
// computing). All of them are dedicated kernels occupying CommSMs SMs —
// the isolation the paper contrasts CAIS's fused kernels against.

// commKernel stamps the common comm-kernel fields.
func (b *Builder) commKernel(name string, grid int, work func(g, tb int) kernel.TBDesc) *kernel.Kernel {
	return &kernel.Kernel{
		Name: name, Kind: kernel.KindComm, Grid: grid,
		CommSMs: b.M.HW.CommSMs,
		Work:    work,
	}
}

// NVLSAllGather builds the multimem.st push-mode AllGather (Fig. 1g): the
// owner of each row block pushes it once; the switch replicates it to all
// peers. out.Tile(mi, g) publishes when GPU g's copy of block mi has
// arrived. in gates each block (typically the producer's sharded tile).
func (b *Builder) NVLSAllGather(name string, src Sharded, cols int, in InTiles, out Gathered) *kernel.Kernel {
	mT := src.MTiles
	if out.MTiles != mT {
		panic(fmt.Sprintf("model: %s: handle mismatch", name))
	}
	rowBytes := b.rowBytes(cols)
	base := b.M.AllocAddrs(mT * b.M.AddrsFor(rowBytes))
	addrsPerRow := uint64(b.M.AddrsFor(rowBytes))
	if b.P == 1 {
		return b.localCopyKernel(name, mT, in, func(mi, g int) []kernel.Tile {
			return b.tiles.One(out.Tile(mi, g))
		})
	}
	return b.commKernel(name, mT, func(g, tb int) kernel.TBDesc {
		if src.Owner(tb) != g {
			return kernel.TBDesc{Group: -1}
		}
		mi := tb
		return kernel.TBDesc{
			Group: -1,
			In:    in(g, mi, 0),
			// The owner's own copy is already local.
			Out: b.tiles.One(out.Tile(mi, g)),
			Post: b.accs.One(kernel.Access{
				Sem: kernel.SemWrite, Mode: noc.OpMultimemST,
				Addr: base + uint64(mi)*addrsPerRow, Home: g, Bytes: rowBytes,
				PublishEach: out.Tile(mi, 0),
			}),
		}
	})
}

// NVLSReduceScatter builds the multimem.ld_reduce pull-mode ReduceScatter:
// the owner of each row block (mi % P, Sharded.Owner's rule) pulls it, the
// switch fans reads to every GPU's replica and reduces in flight.
// parts.Tile(mi, ni, 0) publishes at the owner on arrival. in gates the
// pull on the partials' readiness.
func (b *Builder) NVLSReduceScatter(name string, m, n int, in InTiles, parts LocalGrid) *kernel.Kernel {
	mT, nT := MTiles(m), NTiles(n)
	tileBytes := b.tileBytes()
	base := b.M.AllocAddrs(mT * nT * b.M.AddrsFor(tileBytes))
	addrsPerTile := uint64(b.M.AddrsFor(tileBytes))
	if b.P == 1 {
		return b.localCopyKernel(name, mT*nT, in2(in, nT), func(tb, g int) []kernel.Tile {
			return b.tiles.One(parts.Tile(tb/nT, tb%nT, 0))
		})
	}
	return b.commKernel(name, mT*nT, func(g, tb int) kernel.TBDesc {
		mi, ni := tb/nT, tb%nT
		if mi%b.P != g {
			return kernel.TBDesc{Group: -1}
		}
		return kernel.TBDesc{
			Group: -1,
			In:    in(g, mi, ni),
			Pre: b.accs.One(kernel.Access{
				Sem: kernel.SemRead, Mode: noc.OpMultimemLdReduce,
				Addr: base + uint64(tb)*addrsPerTile, Home: g, Bytes: tileBytes,
				Expected: 1,
				Publish:  b.tiles.One(parts.Tile(mi, ni, 0)),
			}),
		}
	})
}

// NVLSAllReduce builds the multimem.red push-mode AllReduce: every GPU
// pushes its partial; the switch reduces and broadcasts the result to all
// replicas. out.Tile(mi, ni, g) publishes when GPU g's reduced copy lands.
func (b *Builder) NVLSAllReduce(name string, m, n int, in InTiles, out LocalGrid) *kernel.Kernel {
	mT, nT := MTiles(m), NTiles(n)
	tileBytes := b.tileBytes()
	base := b.M.AllocAddrs(mT * nT * b.M.AddrsFor(tileBytes))
	addrsPerTile := uint64(b.M.AddrsFor(tileBytes))
	if b.P == 1 {
		return b.localCopyKernel(name, mT*nT, in2(in, nT), func(tb, g int) []kernel.Tile {
			return b.tiles.One(out.Tile(tb/nT, tb%nT, g))
		})
	}
	return b.commKernel(name, mT*nT, func(g, tb int) kernel.TBDesc {
		mi, ni := tb/nT, tb%nT
		return kernel.TBDesc{
			Group: -1,
			In:    in(g, mi, ni),
			Post: b.accs.One(kernel.Access{
				Sem: kernel.SemReduce, Mode: noc.OpMultimemRed,
				Addr: base + uint64(tb)*addrsPerTile, Home: -1, Bytes: tileBytes,
				Expected: b.P, TileNeed: b.P,
				PublishEach: out.Tile(mi, ni, 0),
			}),
		}
	})
}

// RingReduceScatter builds the GPU-driven ring ReduceScatter: each tile's
// partial travels P-1 accumulation hops ending at the row owner (mi % P,
// Sharded.Owner's rule). Hop pipelining emerges from tile dependencies
// between per-hop TBs.
func (b *Builder) RingReduceScatter(name string, m, n int, in InTiles, parts LocalGrid) *kernel.Kernel {
	mT, nT := MTiles(m), NTiles(n)
	tileBytes := b.tileBytes()
	hopBuf := b.M.NewBuffer(mT * nT * b.P) // per-(tile, gpu) arrival markers
	hopTile := func(t, g int) kernel.Tile { return kernel.Tile{Buf: hopBuf, Idx: t*b.P + g} }
	base := b.M.AllocAddrs(mT * nT * b.M.AddrsFor(tileBytes))
	addrsPerTile := uint64(b.M.AddrsFor(tileBytes))
	if b.P == 1 {
		return b.localCopyKernel(name, mT*nT, in2(in, nT), func(tb, g int) []kernel.Tile {
			return b.tiles.One(parts.Tile(tb/nT, tb%nT, 0))
		})
	}
	return b.commKernel(name, mT*nT, func(g, tb int) kernel.TBDesc {
		mi, ni := tb/nT, tb%nT
		owner := mi % b.P
		if g == owner {
			// The owner only contributes its local partial; the final
			// arriving hop publishes the reduced block.
			return kernel.TBDesc{Group: -1, In: in(g, mi, ni)}
		}
		next := (g + 1) % b.P
		d := kernel.TBDesc{Group: -1, In: in(g, mi, ni)}
		if g != (owner+1)%b.P {
			// Wait for the accumulated partial from the predecessor.
			d.In = b.tiles.With(d.In, hopTile(tb, g))
		}
		// The hop's only receiver is next, so a plain Publish names the
		// tile it completes.
		publish := hopTile(tb, next)
		if next == owner {
			publish = parts.Tile(mi, ni, 0)
		}
		d.Post = b.accs.One(kernel.Access{
			Sem: kernel.SemWrite, Mode: noc.OpStore,
			Addr: base + uint64(tb)*addrsPerTile, Home: next, Bytes: tileBytes,
			Publish: b.tiles.One(publish),
		})
		return d
	})
}

// RingAllGather builds the GPU-driven ring AllGather: each row block is
// forwarded around the ring, one hop per GPU, gated by its arrival tile.
func (b *Builder) RingAllGather(name string, src Sharded, cols int, in InTiles, out Gathered) *kernel.Kernel {
	mT := src.MTiles
	rowBytes := b.rowBytes(cols)
	base := b.M.AllocAddrs(mT * b.M.AddrsFor(rowBytes))
	addrsPerRow := uint64(b.M.AddrsFor(rowBytes))
	if b.P == 1 {
		return b.localCopyKernel(name, mT, in, func(mi, g int) []kernel.Tile {
			return b.tiles.One(out.Tile(mi, g))
		})
	}
	return b.commKernel(name, mT, func(g, tb int) kernel.TBDesc {
		mi := tb
		owner := src.Owner(mi)
		next := (g + 1) % b.P
		d := kernel.TBDesc{Group: -1}
		if g == owner {
			d.In = in(g, mi, 0)
			d.Out = b.tiles.One(out.Tile(mi, g))
		} else {
			// Forward after this GPU's copy arrived.
			d.In = b.tiles.One(out.Tile(mi, g))
		}
		if next == owner {
			// The block has completed its P-1 hops.
			return d
		}
		d.Post = b.accs.One(kernel.Access{
			Sem: kernel.SemWrite, Mode: noc.OpStore,
			Addr: base + uint64(mi)*addrsPerRow, Home: next, Bytes: rowBytes,
			PublishEach: out.Tile(mi, 0),
		})
		return d
	})
}

// RingAllReduce builds the GPU-driven ring AllReduce: a reduce-scatter
// phase (P-1 accumulation hops per tile) followed by an all-gather phase
// (P-1 forwarding hops of the reduced tile). out.Tile(mi, ni, g) publishes
// when GPU g's reduced copy is complete.
func (b *Builder) RingAllReduce(name string, m, n int, in InTiles, out LocalGrid) *kernel.Kernel {
	mT, nT := MTiles(m), NTiles(n)
	tiles := mT * nT
	tileBytes := b.tileBytes()
	hopBuf := b.M.NewBuffer(tiles * b.P)
	hopTile := func(t, g int) kernel.Tile { return kernel.Tile{Buf: hopBuf, Idx: t*b.P + g} }
	base := b.M.AllocAddrs(2 * tiles * b.M.AddrsFor(tileBytes))
	addrsPerTile := uint64(b.M.AddrsFor(tileBytes))
	if b.P == 1 {
		return b.localCopyKernel(name, tiles, in2(in, nT), func(tb, g int) []kernel.Tile {
			return b.tiles.One(out.Tile(tb/nT, tb%nT, g))
		})
	}
	// The reduce chain of tile t ends at its ring owner o(t) = t % P; the
	// gather chain then forwards the reduced tile from o(t) around.
	ringOwner := func(t int) int { return t % b.P }
	return b.commKernel(name, 2*tiles, func(g, tb int) kernel.TBDesc {
		phase, t := tb/tiles, tb%tiles
		mi, ni := t/nT, t%nT
		o := ringOwner(t)
		next := (g + 1) % b.P
		if phase == 0 {
			// Reduce-forward phase.
			if g == o {
				return kernel.TBDesc{Group: -1, In: in(g, mi, ni)}
			}
			d := kernel.TBDesc{Group: -1, In: in(g, mi, ni)}
			if g != (o+1)%b.P {
				d.In = b.tiles.With(d.In, hopTile(t, g))
			}
			publish := hopTile(t, next)
			if next == o {
				publish = out.Tile(mi, ni, o)
			}
			d.Post = b.accs.One(kernel.Access{
				Sem: kernel.SemWrite, Mode: noc.OpStore,
				Addr: base + uint64(t)*addrsPerTile, Home: next, Bytes: tileBytes,
				Publish: b.tiles.One(publish),
			})
			return d
		}
		// Gather-forward phase: forward the reduced copy once it arrives.
		d := kernel.TBDesc{Group: -1, In: b.tiles.One(out.Tile(mi, ni, g))}
		if next == o {
			return d
		}
		d.Post = b.accs.One(kernel.Access{
			Sem: kernel.SemWrite, Mode: noc.OpStore,
			Addr: base + uint64(tiles+t)*addrsPerTile, Home: next, Bytes: tileBytes,
			PublishEach: out.Tile(mi, ni, 0),
		})
		return d
	})
}

// P2PAllGather builds T3's hardware-triggered AllGather without NVLS: the
// owner of each row block pushes it to every peer with direct stores as
// soon as the block is ready (fine-grained, but P-1 redundant uplink
// copies since there is no in-switch multicast).
func (b *Builder) P2PAllGather(name string, src Sharded, cols int, in InTiles, out Gathered) *kernel.Kernel {
	mT := src.MTiles
	rowBytes := b.rowBytes(cols)
	addrsPerRow := b.M.AddrsFor(rowBytes)
	base := b.M.AllocAddrs(mT * b.P * addrsPerRow)
	if b.P == 1 {
		return b.localCopyKernel(name, mT, in, func(mi, g int) []kernel.Tile {
			return b.tiles.One(out.Tile(mi, g))
		})
	}
	return b.commKernel(name, mT, func(g, tb int) kernel.TBDesc {
		mi := tb
		if src.Owner(mi) != g {
			return kernel.TBDesc{Group: -1}
		}
		d := kernel.TBDesc{
			Group: -1,
			In:    in(g, mi, 0),
			Out:   b.tiles.One(out.Tile(mi, g)),
			Post:  b.accs.Make(b.P - 1),
		}
		i := 0
		for peer := 0; peer < b.P; peer++ {
			if peer == g {
				continue
			}
			// Each store's sole receiver is its home peer, so PublishEach
			// resolves to out.Tile(mi, peer) there.
			d.Post[i] = kernel.Access{
				Sem: kernel.SemWrite, Mode: noc.OpStore,
				Addr: base + uint64(mi*b.P+peer)*uint64(addrsPerRow),
				Home: peer, Bytes: rowBytes,
				PublishEach: out.Tile(mi, 0),
			}
			i++
		}
		return d
	})
}

// GateKernel builds a zero-work kernel whose TB c publishes gate tile
// (gateBuf, c*P+g) on GPU g once in(g, c) is satisfied — the chunk-level
// barrier of the software-pipelined overlap baselines (CoCoNet, FuseLib).
func (b *Builder) GateKernel(name string, chunks int, in func(g, c int) []kernel.Tile) (*kernel.Kernel, func(c, g int) kernel.Tile) {
	buf := b.M.NewBuffer(chunks * b.P)
	gate := func(c, g int) kernel.Tile { return kernel.Tile{Buf: buf, Idx: c*b.P + g} }
	k := &kernel.Kernel{
		Name: name, Kind: kernel.KindComm, Grid: chunks,
		CommSMs: 1,
		Work: func(g, tb int) kernel.TBDesc {
			return kernel.TBDesc{
				Group: -1,
				In:    in(g, tb),
				Out:   b.tiles.One(gate(tb, g)),
			}
		},
	}
	return k, gate
}

// localCopyKernel degenerates a collective for the single-GPU case: each
// TB republishes its tiles locally at HBM cost.
func (b *Builder) localCopyKernel(name string, grid int, in InTiles, out func(tb, g int) []kernel.Tile) *kernel.Kernel {
	return b.commKernel(name, grid, func(g, tb int) kernel.TBDesc {
		return kernel.TBDesc{
			Group: -1,
			In:    in(g, tb, 0),
			Out:   out(tb, g),
		}
	})
}

// in2 adapts an (mi, ni) wiring to a flat tb index.
func in2(in InTiles, nT int) InTiles {
	return func(g, tb, _ int) []kernel.Tile {
		return in(g, tb/nT, tb%nT)
	}
}
