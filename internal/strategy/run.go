package strategy

import (
	"fmt"

	"cais/internal/attrib"
	"cais/internal/config"
	"cais/internal/faults"
	"cais/internal/kernel"
	"cais/internal/machine"
	"cais/internal/metrics"
	"cais/internal/model"
	"cais/internal/nvswitch"
	"cais/internal/sim"
	"cais/internal/trace"
)

// Options tune a run beyond the strategy spec (experiment knobs).
type Options struct {
	// MergeTableBytes overrides the per-port merging-table capacity.
	MergeTableBytes int64
	// UnlimitedMergeTable removes the capacity limit (Fig. 13a probes).
	UnlimitedMergeTable bool
	// NoMergeTimeout disables the forward-progress timeout so sessions
	// wait for every expected request (the "merge all eligible requests"
	// condition of Fig. 13a).
	NoMergeTimeout bool
	// Eviction selects the merge unit's victim policy (design ablation).
	Eviction nvswitch.EvictionPolicy
	// NoControlSideband disables the links' dedicated control channel
	// (design ablation).
	NoControlSideband bool
	// Tracer, when non-nil, records the run as a Perfetto-loadable event
	// trace. Instrumentation stays disabled (zero-cost) when nil. An
	// observer only: left out of the memo key, and memo.Cacheable rejects
	// runs that set it.
	Tracer *trace.Tracer `memo:"-"`
	// Progress, when set together with ProgressEvery, is invoked from the
	// event loop every ProgressEvery engine steps (heartbeat logging).
	// Observers only, left out of the memo key like Tracer; the cadence
	// does not affect simulated time.
	Progress      func(now sim.Time, steps uint64) `memo:"-"`
	ProgressEvery uint64                           `memo:"-"`
	// Faults, when non-nil and non-empty, is the fault schedule injected
	// into the run (DESIGN.md §8). Nil or empty reproduces the unfaulted
	// run bit-for-bit.
	Faults *faults.Schedule
	// UtilBin, when positive, records a binned link-utilization timeline
	// over all links and returns it in Result.Timeline (Fig. 16). It hashes
	// into the memo key, so timeline-producing runs stay cacheable.
	UtilBin sim.Time
	// Attrib, when set, attaches an internal tracer and runs the time-
	// attribution pass after completion (Result.Attrib, DESIGN.md §12).
	// The tracer only observes — elapsed time and telemetry are identical
	// with Attrib on or off.
	Attrib bool
}

// Result is the outcome of one simulated run.
type Result struct {
	Strategy string
	Elapsed  sim.Time // completion time of the final stage
	Stats    nvswitch.Summary
	AvgUtil  float64 // mean link utilization over [0, Elapsed]
	MergeHWM int64   // max per-port merging-table occupancy
	Machine  *machine.Machine
	// Telemetry is the machine-readable snapshot of every registered
	// metric at run completion (-metrics-json).
	Telemetry metrics.Snapshot
	// Timeline is the binned utilization timeline (Options.UtilBin > 0).
	Timeline metrics.UtilTimeline
	// Attrib is the time-attribution report (Options.Attrib).
	Attrib *attrib.Report
}

// Speedup reports other's elapsed time divided by r's (how much faster r
// is than other).
func (r Result) Speedup(other Result) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(other.Elapsed) / float64(r.Elapsed)
}

// coordination maps the spec's CAIS knobs to the builder's flags.
func (s Spec) coordination() model.Coordination {
	return model.Coordination{
		PreLaunch: s.CoordPreLaunch,
		PreAccess: s.CoordPreAccess,
		Throttle:  s.Throttled,
	}
}

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
	kind       stateKind
	sharded    model.Sharded
	parts      model.LocalGrid
	partsOwner model.Sharded
	gathered   model.Gathered
	local      model.LocalGrid
}

// plan accumulates kernels into barrier-delimited stages.
type plan struct {
	stages [][]*kernel.Kernel
}

func (p *plan) stage(ks ...*kernel.Kernel) {
	p.stages = append(p.stages, ks)
}

func (p *plan) appendToStage(ks ...*kernel.Kernel) {
	if len(p.stages) == 0 {
		p.stages = append(p.stages, nil)
	}
	last := len(p.stages) - 1
	p.stages[last] = append(p.stages[last], ks...)
}

// add places kernels according to the barrier mode: Global = every kernel
// its own stage; Stage = this op's kernels together in a fresh stage;
// None = everything in one stage.
func (p *plan) add(mode BarrierMode, ks ...*kernel.Kernel) {
	switch mode {
	case BarrierGlobal:
		for _, k := range ks {
			p.stage(k)
		}
	case BarrierStage:
		p.stage(ks...)
	case BarrierNone:
		p.appendToStage(ks...)
	}
}

// lower translates one operator under the spec, mutating the state and
// appending kernels to the plan.
func lower(b *model.Builder, spec Spec, op model.OpSpec, st *actState, p *plan) {
	P := b.P
	switch op.Kind {
	case model.OpLN, model.OpElemwise:
		lowerRowOp(b, spec, op, st, p)

	case model.OpColGEMM:
		lowerColGEMM(b, spec, op, st, p)

	case model.OpRowGEMM:
		lowerRowGEMM(b, spec, op, st, p)

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
		p.add(spec.Barrier, k)
		*st = actState{kind: stateLocal, local: out}

	default:
		panic(fmt.Sprintf("strategy: unknown op kind %v", op.Kind))
	}
}

// lowerRowOp handles LN and elementwise ops in whatever representation the
// activation currently has.
func lowerRowOp(b *model.Builder, spec Spec, op model.OpSpec, st *actState, p *plan) {
	kind := kernel.KindLN
	if op.Kind == model.OpElemwise {
		kind = kernel.KindElemwise
	}
	switch st.kind {
	case stateLocal:
		// Elementwise on a column-parallel shard (GeLU).
		local := st.local
		out := b.NewLocalGrid(op.Rows, local.NTiles*model.TileN)
		k := b.LocalRowOp(op.Name, op.Rows, local.NTiles*model.TileN,
			func(g, mi, ni int) []kernel.Tile { return b.Tile1(local.Tile(mi, ni, g)) }, out)
		p.add(spec.Barrier, k)
		*st = actState{kind: stateLocal, local: out}

	case stateParts:
		// Sharded row op over freshly reduced blocks (SP).
		parts := st.parts
		out := b.NewSharded(op.Rows)
		k := b.ShardedRowOp(op.Name, kind, op.Rows, op.Cols,
			func(g, mi, _ int) []kernel.Tile { return b.RowTiles(parts, mi, 0) }, out)
		p.add(spec.Barrier, k)
		*st = actState{kind: stateSharded, sharded: out}

	case stateSharded:
		src := st.sharded
		out := b.NewSharded(op.Rows)
		k := b.ShardedRowOp(op.Name, kind, op.Rows, op.Cols,
			func(g, mi, _ int) []kernel.Tile { return b.Tile1(src.Tile(mi)) }, out)
		p.add(spec.Barrier, k)
		*st = actState{kind: stateSharded, sharded: out}

	case stateGathered:
		src := st.gathered
		out := b.NewGathered(op.Rows)
		k := b.ReplicatedRowOp(op.Name, kind, op.Rows, op.Cols,
			func(g, mi, _ int) []kernel.Tile { return b.Tile1(src.Tile(mi, g)) }, out)
		p.add(spec.Barrier, k)
		*st = actState{kind: stateGathered, gathered: out}

	case stateReducedCopies:
		copies := st.local
		out := b.NewGathered(op.Rows)
		k := b.ReplicatedRowOp(op.Name, kind, op.Rows, op.Cols,
			func(g, mi, _ int) []kernel.Tile { return b.RowTiles(copies, mi, g) }, out)
		p.add(spec.Barrier, k)
		*st = actState{kind: stateGathered, gathered: out}

	default:
		panic(fmt.Sprintf("strategy: row op %q with no activation state", op.Name))
	}
}

// lowerColGEMM handles the AllGather + column-parallel GEMM boundary.
func lowerColGEMM(b *model.Builder, spec Spec, op model.OpSpec, st *actState, p *plan) {
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
		p.add(spec.Barrier, k)

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
		// splits them (p.add handles both).
		p.add(spec.Barrier, ag, gemm)

	case AGFusedCAIS:
		src := needSharded(st, op.Name)
		k := b.FusedAGGEMM(op.Name, src, op.M, nLocal, op.K, scale,
			model.GatherCAIS, spec.coordination(), out)
		p.add(spec.Barrier, k)

	case AGPerTB:
		src := needSharded(st, op.Name)
		k := b.FusedAGGEMM(op.Name, src, op.M, nLocal, op.K, scale,
			model.GatherPerTB, model.Coordination{}, out)
		p.add(spec.Barrier, k)
	}
	*st = actState{kind: stateLocal, local: out}
}

// lowerRowGEMM handles the row-parallel GEMM + reduction boundary.
func lowerRowGEMM(b *model.Builder, spec Spec, op model.OpSpec, st *actState, p *plan) {
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
			p.add(spec.Barrier, append([]*kernel.Kernel{gemm}, comms...)...)
		} else {
			ar := build("ar."+op.Name, commIn)
			p.add(spec.Barrier, gemm, ar)
		}
		*st = actState{kind: stateReducedCopies, local: copies}

	case RedRSNVLSPull, RedRSRing:
		partial := b.NewLocalGrid(op.M, op.N)
		gemm := b.GEMM(op.Name, op.M, op.N, kLocal, scale, in, partial)
		red := b.NewSharded(op.M)
		parts := b.NewParts(op.M, op.N)
		var rs *kernel.Kernel
		if spec.Reduce == RedRSNVLSPull {
			commIn := func(g, mi, ni int) []kernel.Tile {
				// The pull fans reads to every GPU's replica: all partials
				// of this tile must be in place (interned: the set is the
				// same for every requesting GPU and iteration).
				return b.PeerTiles(partial, mi, ni)
			}
			rs = b.NVLSReduceScatter("rs."+op.Name, op.M, op.N, commIn, red, parts)
		} else {
			commIn := func(g, mi, ni int) []kernel.Tile {
				return b.Tile1(partial.Tile(mi, ni, g))
			}
			rs = b.RingReduceScatter("rs."+op.Name, op.M, op.N, commIn, red, parts)
		}
		p.add(spec.Barrier, gemm, rs)
		*st = actState{kind: stateParts, parts: parts, partsOwner: red}

	case RedARFusedCAIS:
		copies := b.NewLocalGrid(op.M, op.N)
		k := b.FusedGEMMAR(op.Name, op.M, op.N, kLocal, scale, in, spec.coordination(), copies)
		p.add(spec.Barrier, k)
		*st = actState{kind: stateReducedCopies, local: copies}

	case RedRSFusedCAIS, RedRSFusedStore, RedRSFusedNVLSPush:
		red := b.NewSharded(op.M)
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
		k := b.FusedGEMMRS(op.Name, op.M, op.N, kLocal, scale, in,
			mode, spec.coordination(), red, parts)
		p.add(spec.Barrier, k)
		*st = actState{kind: stateParts, parts: parts, partsOwner: red}
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
func initialState(b *model.Builder, spec Spec, tokens int) actState {
	switch spec.Layout {
	case SeqParallel:
		x := b.NewSharded(tokens)
		var tiles []kernel.Tile
		for mi := 0; mi < x.MTiles; mi++ {
			tiles = append(tiles, x.Tile(mi))
		}
		b.M.PublishTiles(tiles)
		return actState{kind: stateSharded, sharded: x}
	default:
		x := b.NewGathered(tokens)
		var tiles []kernel.Tile
		for mi := 0; mi < x.MTiles; mi++ {
			for g := 0; g < b.P; g++ {
				tiles = append(tiles, x.Tile(mi, g))
			}
		}
		b.M.PublishTiles(tiles)
		return actState{kind: stateGathered, gathered: x}
	}
}

// publishLocalGrid publishes a whole per-GPU grid (workload inputs).
func publishLocalGrid(b *model.Builder, grid model.LocalGrid) {
	var tiles []kernel.Tile
	for mi := 0; mi < grid.MTiles; mi++ {
		for ni := 0; ni < grid.NTiles; ni++ {
			for g := 0; g < grid.P; g++ {
				tiles = append(tiles, grid.Tile(mi, ni, g))
			}
		}
	}
	b.M.PublishTiles(tiles)
}

// stepLimit is the runaway-simulation guard every run's engine carries.
const stepLimit uint64 = 2_000_000_000

func newMachine(hw config.Hardware, spec Spec, opts Options) *machine.Machine {
	eng := sim.NewEngine()
	eng.SetStepLimit(stepLimit)
	if opts.Progress != nil && opts.ProgressEvery > 0 {
		eng.SetProgress(opts.ProgressEvery, opts.Progress)
	}
	if opts.NoMergeTimeout {
		hw.MergeTimeout = 0
	}
	return machine.New(eng, hw, machine.Options{
		TrafficControl:      spec.TrafficControl,
		UnlimitedMergeTable: opts.UnlimitedMergeTable,
		MergeTableBytes:     opts.MergeTableBytes,
		Eviction:            opts.Eviction,
		NoControlSideband:   opts.NoControlSideband,
		Tracer:              opts.Tracer,
		Faults:              opts.Faults,
	})
}

// observers resolves the declarative observability knobs. The internal
// tracer must exist before machine assembly (GPU trace thread ids are
// assigned at construction), so callers invoke this on the options copy
// before newMachine and attach the returned recorder right after.
func observers(hw config.Hardware, opts *Options) *metrics.UtilSeries {
	if opts.Attrib && opts.Tracer == nil {
		opts.Tracer = trace.New()
	}
	if opts.UtilBin > 0 {
		return metrics.NewUtilSeries(opts.UtilBin, 2*hw.NumGPUs*hw.NumSwitchPlanes)
	}
	return nil
}

func finish(spec Spec, m *machine.Machine, doneAt sim.Time, opts Options, rec *metrics.UtilSeries) Result {
	res := Result{
		Strategy:  spec.Name,
		Elapsed:   doneAt,
		Stats:     m.SwitchStats(),
		AvgUtil:   m.AvgLinkUtilization(doneAt),
		MergeHWM:  m.MergeTableHighWater(),
		Machine:   m,
		Telemetry: m.Metrics().Snapshot(),
	}
	if rec != nil {
		res.Timeline = rec.Timeline()
	}
	if opts.Attrib {
		res.Attrib = attrib.Build(m, opts.Tracer, doneAt)
	}
	return res
}

// RunSubLayer executes one of the paper's communication-intensive
// sub-layers (row-GEMM -> LN -> col-GEMM, Fig. 12) under the strategy.
func RunSubLayer(hw config.Hardware, spec Spec, sub model.SubLayer, opts Options) (Result, error) {
	rec := observers(hw, &opts)
	m := newMachine(hw, spec, opts)
	if rec != nil {
		m.AttachRecorder(rec)
	}
	b := model.NewBuilder(m)
	p := &plan{}

	// The row GEMM's input: the preceding column-parallel activation.
	kLocal := sub.RowGEMM.K / b.P
	if kLocal < model.TileN {
		kLocal = model.TileN
	}
	input := b.NewLocalGrid(sub.RowGEMM.M, kLocal)
	publishLocalGrid(b, input)
	st := actState{kind: stateLocal, local: input}

	lower(b, spec, sub.RowGEMM, &st, p)
	lower(b, spec, sub.LN, &st, p)
	lower(b, spec, sub.ColGEMM, &st, p)

	doneAt, _, err := m.RunStages(p.stages)
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", spec.Name, sub.ID, err)
	}
	return finish(spec, m, doneAt, opts, rec), nil
}

// RunLayers executes n transformer layers (forward, plus backward when
// training) under the strategy and returns the elapsed time for that
// chain. Callers scale per-layer time to the full model depth.
func RunLayers(hw config.Hardware, spec Spec, cfg config.Model, training bool, layers int) (Result, error) {
	return RunLayersOpts(hw, spec, cfg, training, layers, Options{})
}

// RunLayersOpts is RunLayers with experiment knobs.
func RunLayersOpts(hw config.Hardware, spec Spec, cfg config.Model, training bool, layers int, opts Options) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	rec := observers(hw, &opts)
	m := newMachine(hw, spec, opts)
	if rec != nil {
		m.AttachRecorder(rec)
	}
	b := model.NewBuilder(m)
	p := &plan{}
	st := initialState(b, spec, cfg.Tokens())

	phases := []model.Phase{model.Forward}
	if training {
		phases = append(phases, model.Backward)
	}
	for _, phase := range phases {
		for layer := 0; layer < layers; layer++ {
			for _, op := range model.LayerOps(cfg, phase) {
				op.Name = fmt.Sprintf("%s.l%d.%s", phase, layer, op.Name)
				lower(b, spec, op, &st, p)
			}
		}
	}

	doneAt, _, err := m.RunStages(p.stages)
	if err != nil {
		return Result{}, fmt.Errorf("%s/%s: %w", spec.Name, cfg.Name, err)
	}
	return finish(spec, m, doneAt, opts, rec), nil
}
