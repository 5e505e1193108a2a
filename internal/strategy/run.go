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
// The tensor's shape does not tell them apart: a local shard and a reduced
// copy can have the same tiling.
type stateKind int

const (
	stateNone          stateKind = iota
	stateSharded                 // sequence-sharded rows (one copy)
	stateParts                   // ReduceScatter result (one copy)
	stateGathered                // replicated rows (a copy per GPU)
	stateLocal                   // column-parallel GEMM output (per-GPU shard)
	stateReducedCopies           // AllReduce result (per-GPU full-width copy)
)

// actState is the lowering context threaded through the op sequence: the
// activation tensor and how it is laid out.
type actState struct {
	kind stateKind
	t    model.Tensor
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
		k := b.Attention(op.Name, op.Batch, headsLocal, op.Seq, op.HeadDim, op.ComputeScale(), st.t, out)
		place(s, spec.Barrier, k)
		*st = actState{kind: stateLocal, t: out}

	default:
		panic(fmt.Sprintf("strategy: unknown op kind %v", op.Kind))
	}
}

// lowerRowOp handles LN and elementwise ops in whatever representation the
// activation currently has. A TB moves three row blocks (read, normalize,
// write), or two tiles for elementwise on a column-parallel shard (GeLU).
func lowerRowOp(s *core.Session, spec Spec, op model.OpSpec, st *actState) {
	b := s.Builder()
	kind := kernel.KindLN
	if op.Kind == model.OpElemwise {
		kind = kernel.KindElemwise
	}
	src := st.t
	in := func(g, mi, ni int) []kernel.Tile { return b.Tile1(src.Tile(mi, ni, g)) }
	if st.kind == stateParts || st.kind == stateReducedCopies {
		// A reduced tensor is a full-width grid: a row op reads the row.
		in = func(g, mi, _ int) []kernel.Tile { return b.RowTiles(src, mi, g) }
	}
	bytes := 3 * int64(model.TileM) * int64(op.Cols) * b.Elem
	var next actState
	switch st.kind {
	case stateLocal:
		next = actState{kind: stateLocal, t: b.NewLocalGrid(op.Rows, src.NTiles*model.TileN)}
		bytes = 2 * int64(model.TileM) * int64(model.TileN) * b.Elem
	case stateSharded, stateParts:
		next = actState{kind: stateSharded, t: b.NewSharded(op.Rows)}
	case stateGathered, stateReducedCopies:
		next = actState{kind: stateGathered, t: b.NewGathered(op.Rows)}
	default:
		panic(fmt.Sprintf("strategy: row op %q with no activation state", op.Name))
	}
	place(s, spec.Barrier, b.RowOp(op.Name, kind, bytes, in, next.t))
	*st = next
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
		src := st.t
		k := b.GEMM(op.Name, op.M, nLocal, op.K, scale,
			func(g, mi, ni int) []kernel.Tile { return b.Tile1(src.Tile(mi, 0, g)) }, out)
		place(s, spec.Barrier, k)

	case AGNVLS, AGRing, AGP2PPush:
		src := needSharded(st, op.Name)
		copies := b.NewGathered(op.M)
		in := func(g, mi, _ int) []kernel.Tile { return b.Tile1(src.Tile(mi, 0, g)) }
		var ag *kernel.Kernel
		switch spec.Gather {
		case AGNVLS:
			ag = b.NVLSAllGather("ag."+op.Name, op.K, in, copies)
		case AGRing:
			ag = b.RingAllGather("ag."+op.Name, op.K, in, copies)
		case AGP2PPush:
			ag = b.P2PAllGather("ag."+op.Name, op.K, in, copies)
		default:
			panic("strategy: unreachable gather impl inside AGNVLS/AGRing/AGP2PPush case")
		}
		gemm := b.GEMM(op.Name, op.M, nLocal, op.K, scale,
			func(g, mi, ni int) []kernel.Tile { return b.Tile1(copies.Tile(mi, 0, g)) }, out)
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
	*st = actState{kind: stateLocal, t: out}
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
	input := st.t
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
		*st = actState{kind: stateReducedCopies, t: copies}

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
		*st = actState{kind: stateParts, t: parts}

	case RedARFusedCAIS:
		copies := b.NewLocalGrid(op.M, op.N)
		k := b.FusedGEMMReduce(op.Name, op.M, op.N, kLocal, scale, in,
			model.ReduceCAISBroadcast, spec.Coord, copies)
		place(s, spec.Barrier, k)
		*st = actState{kind: stateReducedCopies, t: copies}

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
		*st = actState{kind: stateParts, t: parts}
	}
}

// chunkedComms builds the software-pipelined collective of CoCoNet /
// FuseLib: a gate kernel publishes per-chunk completion; the collective is
// split into per-chunk kernels (CoCoNet) or kept as one kernel whose TBs
// are gated per chunk (FuseLib).
func chunkedComms(b *model.Builder, spec Spec, op model.OpSpec,
	partial model.Tensor, build func(string, model.InTiles) *kernel.Kernel) []*kernel.Kernel {

	gate, gt := b.GateKernel("gate."+op.Name, spec.Chunks, partial)
	// A collective TB waits for its row's chunk.
	gated := func(g, mi, ni int) []kernel.Tile { return b.Tile1(gt.Tile(gt.Chunk(mi), g)) }
	out := []*kernel.Kernel{gate}
	if spec.FusedComm {
		return append(out, build("ar."+op.Name, gated))
	}
	for c := 0; c < spec.Chunks; c++ {
		k := build(fmt.Sprintf("ar.%s.c%d", op.Name, c), gated)
		out = append(out, chunkFiltered(k, gt, c, partial))
	}
	return out
}

// chunkFiltered wraps a collective kernel over t so TBs outside chunk c
// are no-ops (they neither move data nor publish tiles). A TB's block is
// its index modulo t's block count (ring AllReduce grids have two
// phases).
func chunkFiltered(k *kernel.Kernel, gt model.Gate, c int, t model.Tensor) *kernel.Kernel {
	orig := k.Work
	tiles := t.MTiles * t.NTiles
	k.Work = func(g, tb int) kernel.TBDesc {
		if gt.Chunk((tb%tiles)/t.NTiles) != c {
			return kernel.TBDesc{Group: -1}
		}
		return orig(g, tb)
	}
	return k
}

func needSharded(st *actState, name string) model.Tensor {
	if st.kind != stateSharded {
		panic(fmt.Sprintf("strategy: %q needs a sharded input under SP, have state %d", name, st.kind))
	}
	return st.t
}

// initialState publishes the chain's input activation and returns the
// starting lowering state.
func initialState(s *core.Session, spec Spec, tokens int) actState {
	b := s.Builder()
	if spec.Layout() == SeqParallel {
		return publish(s, actState{kind: stateSharded, t: b.NewSharded(tokens)})
	}
	return publish(s, actState{kind: stateGathered, t: b.NewGathered(tokens)})
}

// publish marks every tile of st's tensor ready (workload inputs) and
// returns st.
func publish(s *core.Session, st actState) actState {
	t := st.t
	tiles := make([]kernel.Tile, 0, t.MTiles*t.NTiles*t.P)
	for mi := 0; mi < t.MTiles; mi++ {
		for ni := 0; ni < t.NTiles; ni++ {
			for g := 0; g < t.P; g++ {
				tiles = append(tiles, t.Tile(mi, ni, g))
			}
		}
	}
	s.PublishTiles(tiles)
	return st
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
		st := publish(s, actState{kind: stateLocal, t: b.NewLocalGrid(sub.RowGEMM.M, kLocal)})

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
