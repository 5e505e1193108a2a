package strategy

import (
	"fmt"

	"cais/internal/config"
	"cais/internal/core"
	"cais/internal/kernel"
	"cais/internal/machine"
	"cais/internal/model"
)

// Options tune a run beyond the strategy spec: design ablations, fault
// injection and observers. Hardware knobs such as the merge-table size
// live in config.Hardware.
type Options = machine.Options

// Result is the outcome of one simulated run.
type Result = core.Result

// stateKind tracks the representation the activation currently lives in.
type stateKind int

const (
	stateNone stateKind = iota
	stateSharded
	stateParts
	stateGathered
	stateLocal         // column-parallel GEMM output (per-GPU shard)
	stateReducedCopies // AllReduce result (per-GPU full-width copy)
)

// actState is the lowering context threaded through the op sequence.
type actState struct {
	kind     stateKind
	sharded  model.Sharded
	parts    model.LocalGrid
	gathered model.Gathered
	local    model.LocalGrid
}

// place adds one op's kernels to the session according to the barrier
// mode: Global = every kernel its own stage; Stage = the op's kernels
// together in a fresh stage; None = everything in one stage.
func place(s *core.Session, mode BarrierMode, ks ...*kernel.Kernel) {
	switch mode {
	case BarrierGlobal:
		for _, k := range ks {
			s.Stage(k)
		}
	case BarrierStage:
		s.Stage(ks...)
	case BarrierNone:
		s.Concurrent(ks...)
	}
}

// lower translates one operator under the spec, mutating the state and
// adding kernels to the session's plan.
func lower(s *core.Session, spec Spec, op model.OpSpec, st *actState) {
	b := s.Builder()
	P := b.P
	switch op.Kind {
	case model.OpLN, model.OpElemwise:
		lowerRowOp(s, spec, op, st)

	case model.OpColGEMM:
		lowerColGEMM(s, spec, op, st)

	case model.OpRowGEMM:
		lowerRowGEMM(s, spec, op, st)

	case model.OpAttention:
		headsLocal := op.Heads / P
		if headsLocal < 1 {
			headsLocal = 1
		}
		if st.kind != stateLocal {
			panic(fmt.Sprintf("strategy: attention %q needs a local QKV grid, have state %d", op.Name, st.kind))
		}
		tokens := op.Batch * op.Seq
		out := b.NewLocalGrid(tokens, headsLocal*op.HeadDim)
		k := b.Attention(op.Name, op.Batch, headsLocal, op.Seq, op.HeadDim, op.ComputeScale(), st.local, out)
		place(s, spec.Barrier, k)
		*st = actState{kind: stateLocal, local: out}

	default:
		panic(fmt.Sprintf("strategy: unknown op kind %v", op.Kind))
	}
}

// lowerRowOp handles LN and elementwise ops in whatever representation the
// activation currently has.
func lowerRowOp(s *core.Session, spec Spec, op model.OpSpec, st *actState) {
	b := s.Builder()
	kind := kernel.KindLN
	if op.Kind == model.OpElemwise {
		kind = kernel.KindElemwise
	}
	switch st.kind {
	case stateLocal:
		// Elementwise on a column-parallel shard (GeLU).
		local := st.local
		out := b.NewLocalGrid(op.Rows, local.NTiles*model.TileN)
		k := b.LocalRowOp(op.Name, op.Rows,
			func(g, mi, ni int) []kernel.Tile { return b.Tile1(local.Tile(mi, ni, g)) }, out)
		place(s, spec.Barrier, k)
		*st = actState{kind: stateLocal, local: out}

	case stateParts:
		// Sharded row op over freshly reduced blocks (SP).
		parts := st.parts
		out := b.NewSharded(op.Rows)
		k := b.ShardedRowOp(op.Name, kind, op.Rows, op.Cols,
			func(g, mi, _ int) []kernel.Tile { return b.RowTiles(parts, mi, 0) }, out)
		place(s, spec.Barrier, k)
		*st = actState{kind: stateSharded, sharded: out}

	case stateSharded:
		src := st.sharded
		out := b.NewSharded(op.Rows)
		k := b.ShardedRowOp(op.Name, kind, op.Rows, op.Cols,
			func(g, mi, _ int) []kernel.Tile { return b.Tile1(src.Tile(mi)) }, out)
		place(s, spec.Barrier, k)
		*st = actState{kind: stateSharded, sharded: out}

	case stateGathered:
		src := st.gathered
		out := b.NewGathered(op.Rows)
		k := b.ReplicatedRowOp(op.Name, kind, op.Rows, op.Cols,
			func(g, mi, _ int) []kernel.Tile { return b.Tile1(src.Tile(mi, g)) }, out)
		place(s, spec.Barrier, k)
		*st = actState{kind: stateGathered, gathered: out}

	case stateReducedCopies:
		copies := st.local
		out := b.NewGathered(op.Rows)
		k := b.ReplicatedRowOp(op.Name, kind, op.Rows, op.Cols,
			func(g, mi, _ int) []kernel.Tile { return b.RowTiles(copies, mi, g) }, out)
		place(s, spec.Barrier, k)
		*st = actState{kind: stateGathered, gathered: out}

	default:
		panic(fmt.Sprintf("strategy: row op %q with no activation state", op.Name))
	}
}

// lowerColGEMM handles the AllGather + column-parallel GEMM boundary.
func lowerColGEMM(s *core.Session, spec Spec, op model.OpSpec, st *actState) {
	b := s.Builder()
	P := b.P
	nLocal := op.N / P
	if nLocal < model.TileN {
		nLocal = model.TileN
	}
	out := b.NewLocalGrid(op.M, nLocal)
	scale := op.ComputeScale()

	switch spec.Gather {
	case AGNone:
		if st.kind != stateGathered {
			panic(fmt.Sprintf("strategy: %q needs replicated input under Basic TP", op.Name))
		}
		src := st.gathered
		k := b.GEMM(op.Name, op.M, nLocal, op.K, scale,
			func(g, mi, ni int) []kernel.Tile { return b.Tile1(src.Tile(mi, g)) }, out)
		place(s, spec.Barrier, k)

	case AGNVLS, AGRing, AGP2PPush:
		src := needSharded(st, op.Name)
		copies := b.NewGathered(op.M)
		in := func(g, mi, _ int) []kernel.Tile { return b.Tile1(src.Tile(mi)) }
		var ag *kernel.Kernel
		switch spec.Gather {
		case AGNVLS:
			ag = b.NVLSAllGather("ag."+op.Name, src, op.K, in, copies)
		case AGRing:
			ag = b.RingAllGather("ag."+op.Name, src, op.K, in, copies)
		case AGP2PPush:
			ag = b.P2PAllGather("ag."+op.Name, src, op.K, in, copies)
		default:
			panic("strategy: unreachable gather impl inside AGNVLS/AGRing/AGP2PPush case")
		}
		gemm := b.GEMM(op.Name, op.M, nLocal, op.K, scale,
			func(g, mi, ni int) []kernel.Tile { return b.Tile1(copies.Tile(mi, g)) }, out)
		// Stage mode keeps the gather and its consumer together for
		// fine-grained AG-GEMM overlap (T3's extension); Global mode
		// splits them (place handles both).
		place(s, spec.Barrier, ag, gemm)

	case AGFusedCAIS, AGPerTB:
		mode := model.GatherCAIS
		if spec.Gather == AGPerTB {
			mode = model.GatherPerTB
		}
		k := b.FusedAGGEMM(op.Name, needSharded(st, op.Name), op.M, nLocal, op.K, scale,
			mode, spec.Coord, out)
		place(s, spec.Barrier, k)
	}
	*st = actState{kind: stateLocal, local: out}
}

// lowerRowGEMM handles the row-parallel GEMM + reduction boundary.
func lowerRowGEMM(s *core.Session, spec Spec, op model.OpSpec, st *actState) {
	b := s.Builder()
	P := b.P
	kLocal := op.K / P
	if kLocal < 1 {
		kLocal = op.K
	}
	if st.kind != stateLocal {
		panic(fmt.Sprintf("strategy: row GEMM %q needs a local input grid, have state %d", op.Name, st.kind))
	}
	input := st.local
	in := func(g, mi, ni int) []kernel.Tile { return b.RowTiles(input, mi, g) }
	scale := op.ComputeScale()

	switch spec.Reduce {
	case RedARNVLS, RedARRing:
		partial := b.NewLocalGrid(op.M, op.N)
		gemm := b.GEMM(op.Name, op.M, op.N, kLocal, scale, in, partial)
		copies := b.NewLocalGrid(op.M, op.N)
		commIn := func(g, mi, ni int) []kernel.Tile { return b.Tile1(partial.Tile(mi, ni, g)) }
		build := func(name string, cin model.InTiles) *kernel.Kernel {
			if spec.Reduce == RedARNVLS {
				return b.NVLSAllReduce(name, op.M, op.N, cin, copies)
			}
			return b.RingAllReduce(name, op.M, op.N, cin, copies)
		}
		if spec.Chunks > 1 {
			comms := chunkedComms(b, spec, op, partial, build)
			place(s, spec.Barrier, append([]*kernel.Kernel{gemm}, comms...)...)
		} else {
			ar := build("ar."+op.Name, commIn)
			place(s, spec.Barrier, gemm, ar)
		}
		*st = actState{kind: stateReducedCopies, local: copies}

	case RedRSNVLSPull, RedRSRing:
		partial := b.NewLocalGrid(op.M, op.N)
		gemm := b.GEMM(op.Name, op.M, op.N, kLocal, scale, in, partial)
		parts := b.NewParts(op.M, op.N)
		var rs *kernel.Kernel
		if spec.Reduce == RedRSNVLSPull {
			commIn := func(g, mi, ni int) []kernel.Tile {
				// The pull fans reads to every GPU's replica: all partials
				// of this tile must be in place (interned: the set is the
				// same for every requesting GPU and iteration).
				return b.PeerTiles(partial, mi, ni)
			}
			rs = b.NVLSReduceScatter("rs."+op.Name, op.M, op.N, commIn, parts)
		} else {
			commIn := func(g, mi, ni int) []kernel.Tile {
				return b.Tile1(partial.Tile(mi, ni, g))
			}
			rs = b.RingReduceScatter("rs."+op.Name, op.M, op.N, commIn, parts)
		}
		place(s, spec.Barrier, gemm, rs)
		*st = actState{kind: stateParts, parts: parts}

	case RedARFusedCAIS:
		copies := b.NewLocalGrid(op.M, op.N)
		k := b.FusedGEMMReduce(op.Name, op.M, op.N, kLocal, scale, in,
			model.ReduceCAISBroadcast, spec.Coord, copies)
		place(s, spec.Barrier, k)
		*st = actState{kind: stateReducedCopies, local: copies}

	case RedRSFusedCAIS, RedRSFusedStore, RedRSFusedNVLSPush:
		parts := b.NewParts(op.M, op.N)
		mode := model.ReduceCAIS
		switch spec.Reduce {
		case RedRSFusedStore:
			mode = model.ReduceP2PStore
		case RedRSFusedNVLSPush:
			mode = model.ReduceNVLSPush
		default:
			// RedRSFusedCAIS keeps ReduceCAIS.
		}
		k := b.FusedGEMMReduce(op.Name, op.M, op.N, kLocal, scale, in,
			mode, spec.Coord, parts)
		place(s, spec.Barrier, k)
		*st = actState{kind: stateParts, parts: parts}
	}
}

// chunkedComms builds the software-pipelined collective of CoCoNet /
// FuseLib: a gate kernel publishes per-chunk completion; the collective is
// split into per-chunk kernels (CoCoNet) or kept as one kernel whose TBs
// are gated per chunk (FuseLib).
func chunkedComms(b *model.Builder, spec Spec, op model.OpSpec,
	partial model.LocalGrid, build func(string, model.InTiles) *kernel.Kernel) []*kernel.Kernel {

	C := spec.Chunks
	mT := model.MTiles(op.M)
	chunkOf := func(mi int) int {
		c := mi * C / mT
		if c >= C {
			c = C - 1
		}
		return c
	}
	// Gate inputs intern per (gpu, chunk): the set is identical on every
	// Work re-evaluation, so one immutable slice serves them all.
	gateIn := make(map[[2]int][]kernel.Tile)
	gate, gateTile := b.GateKernel("gate."+op.Name, C, func(g, c int) []kernel.Tile {
		key := [2]int{g, c}
		if tiles, ok := gateIn[key]; ok {
			return tiles
		}
		var tiles []kernel.Tile
		for mi := 0; mi < mT; mi++ {
			if chunkOf(mi) != c {
				continue
			}
			tiles = append(tiles, b.RowTiles(partial, mi, g)...)
		}
		gateIn[key] = tiles
		return tiles
	})
	out := []*kernel.Kernel{gate}
	if spec.FusedComm {
		k := build("ar."+op.Name, func(g, mi, ni int) []kernel.Tile {
			return b.Tile1(gateTile(chunkOf(mi), g))
		})
		return append(out, k)
	}
	for c := 0; c < C; c++ {
		c := c
		k := build(fmt.Sprintf("ar.%s.c%d", op.Name, c), func(g, mi, ni int) []kernel.Tile {
			if chunkOf(mi) != c {
				return nil
			}
			return b.Tile1(gateTile(c, g))
		})
		out = append(out, chunkFiltered(k, chunkOf, c, model.NTiles(op.N), model.MTiles(op.M)*model.NTiles(op.N)))
	}
	return out
}

// chunkFiltered wraps a collective kernel so TBs outside the chunk are
// no-ops (they neither move data nor publish tiles). tiles is the number
// of data tiles per phase (ring AllReduce grids have two phases).
func chunkFiltered(k *kernel.Kernel, chunkOf func(mi int) int, c, nT, tiles int) *kernel.Kernel {
	orig := k.Work
	k.Work = func(g, tb int) kernel.TBDesc {
		mi := (tb % tiles) / nT
		if chunkOf(mi) != c {
			return kernel.TBDesc{Group: -1}
		}
		return orig(g, tb)
	}
	return k
}

func needSharded(st *actState, name string) model.Sharded {
	if st.kind != stateSharded {
		panic(fmt.Sprintf("strategy: %q needs a sharded input under SP, have state %d", name, st.kind))
	}
	return st.sharded
}

// initialState publishes the chain's input activation and returns the
// starting lowering state.
func initialState(s *core.Session, spec Spec, tokens int) actState {
	b := s.Builder()
	switch spec.Layout() {
	case SeqParallel:
		x := b.NewSharded(tokens)
		var tiles []kernel.Tile
		for mi := 0; mi < x.MTiles; mi++ {
			tiles = append(tiles, x.Tile(mi))
		}
		s.PublishTiles(tiles)
		return actState{kind: stateSharded, sharded: x}
	default:
		x := b.NewGathered(tokens)
		var tiles []kernel.Tile
		for mi := 0; mi < x.MTiles; mi++ {
			for g := 0; g < b.P; g++ {
				tiles = append(tiles, x.Tile(mi, g))
			}
		}
		s.PublishTiles(tiles)
		return actState{kind: stateGathered, gathered: x}
	}
}

// publishLocalGrid publishes a whole per-GPU grid (workload inputs).
func publishLocalGrid(s *core.Session, grid model.LocalGrid) {
	var tiles []kernel.Tile
	for mi := 0; mi < grid.MTiles; mi++ {
		for ni := 0; ni < grid.NTiles; ni++ {
			for g := 0; g < grid.P; g++ {
				tiles = append(tiles, grid.Tile(mi, ni, g))
			}
		}
	}
	s.PublishTiles(tiles)
}

// run assembles a session for the spec, lowers the workload into it with
// build, runs it and reports the result. label names the workload in
// errors.
func run(hw config.Hardware, spec Spec, opts Options, label string, build func(s *core.Session)) (Result, error) {
	s, err := core.NewSession(hw, opts)
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", spec.Name, label, err)
	}
	s.Machine().SetTrafficControl(spec.TrafficControl)
	build(s)
	res, err := s.Run()
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", spec.Name, label, err)
	}
	res.Strategy = spec.Name
	return res, nil
}

// RunSubLayer executes one of the paper's communication-intensive
// sub-layers (row-GEMM -> LN -> col-GEMM, Fig. 12) under the strategy.
func RunSubLayer(hw config.Hardware, spec Spec, sub model.SubLayer, opts Options) (Result, error) {
	return run(hw, spec, opts, sub.ID, func(s *core.Session) {
		// The row GEMM's input: the preceding column-parallel activation.
		b := s.Builder()
		kLocal := sub.RowGEMM.K / b.P
		if kLocal < model.TileN {
			kLocal = model.TileN
		}
		input := b.NewLocalGrid(sub.RowGEMM.M, kLocal)
		publishLocalGrid(s, input)
		st := actState{kind: stateLocal, local: input}

		lower(s, spec, sub.RowGEMM, &st)
		lower(s, spec, sub.LN, &st)
		lower(s, spec, sub.ColGEMM, &st)
	})
}

// RunLayersOpts executes `layers` transformer layers (forward, plus
// backward when training) under the strategy and returns the elapsed time
// for that chain. Callers scale per-layer time to the full model depth, so
// layers must be at least 1.
func RunLayersOpts(hw config.Hardware, spec Spec, cfg config.Model, training bool, layers int, opts Options) (Result, error) {
	if layers < 1 {
		return Result{}, fmt.Errorf("%s/%s: %d layers, want at least 1", spec.Name, cfg.Name, layers)
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	return run(hw, spec, opts, cfg.Name, func(s *core.Session) {
		st := initialState(s, spec, cfg.Tokens())
		phases := []model.Phase{model.Forward}
		if training {
			phases = append(phases, model.Backward)
		}
		for _, phase := range phases {
			for layer := 0; layer < layers; layer++ {
				for _, op := range model.LayerOps(cfg, phase) {
					op.Name = fmt.Sprintf("%s.l%d.%s", phase, layer, op.Name)
					lower(s, spec, op, &st)
				}
			}
		}
	})
}
