package model

import (
	"testing"
	"testing/quick"

	"cais/internal/config"
	"cais/internal/kernel"
	"cais/internal/machine"
	"cais/internal/noc"
	"cais/internal/sim"
)

func testBuilder(t testing.TB) *Builder {
	t.Helper()
	hw := config.DGXH100()
	hw.NumGPUs = 4
	hw.NumSwitchPlanes = 2
	hw.RequestBytes = 8 << 10
	eng := sim.NewEngine()
	return NewBuilder(machine.New(eng, hw, machine.Options{}))
}

func TestTileHelpers(t *testing.T) {
	b := testBuilder(t)
	// Block-cyclic ownership.
	for mi := 0; mi < 16; mi++ {
		if b.owner(mi) != mi%4 {
			t.Fatalf("owner(%d) = %d, want %d", mi, b.owner(mi), mi%4)
		}
	}
	if singleGPUBuilder(t).owner(5) != 0 {
		t.Fatal("single-GPU owner must be 0")
	}
	// A tensor with a copy per GPU has a distinct tile per (block, GPU).
	l := Tensor{Buf: 9, MTiles: 4, NTiles: 3, P: 4}
	seen := map[kernel.Tile]bool{}
	for mi := 0; mi < 4; mi++ {
		for ni := 0; ni < 3; ni++ {
			for gpu := 0; gpu < 4; gpu++ {
				tl := l.Tile(mi, ni, gpu)
				if seen[tl] {
					t.Fatalf("duplicate tile %v", tl)
				}
				seen[tl] = true
			}
		}
	}
	// A one-copy tensor has one tile per block, whichever GPU asks.
	parts := Tensor{Buf: 10, MTiles: 4, NTiles: 3, P: 1}
	for mi := 0; mi < 4; mi++ {
		for ni := 0; ni < 3; ni++ {
			if tl := parts.Tile(mi, ni, 2); tl != parts.Tile(mi, ni, 0) || tl.Idx != mi*3+ni {
				t.Fatalf("one-copy tile (%d, %d) = %v on GPU 2, %v on GPU 0", mi, ni, tl, parts.Tile(mi, ni, 0))
			}
		}
	}
	if len(b.RowTiles(l, 2, 1)) != 3 {
		t.Fatal("RowTiles must span NTiles")
	}
	if len(b.PeerTiles(l, 2, 1)) != 4 {
		t.Fatal("PeerTiles must span the copies")
	}
}

func TestOwnershipBalancedProperty(t *testing.T) {
	f := func(mt uint8, p uint8) bool {
		P := int(p%8) + 1
		MT := int(mt) + P // at least one block per GPU
		b := &Builder{P: P}
		counts := make([]int, P)
		for mi := 0; mi < MT; mi++ {
			counts[b.owner(mi)]++
		}
		min, max := counts[0], counts[0]
		for _, c := range counts {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		return max-min <= 1 // block-cyclic is maximally balanced
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLayerOpsStructure(t *testing.T) {
	m := config.LLaMA7B()
	ops := LayerOps(m, Forward)
	if len(ops) != 10 {
		t.Fatalf("forward ops = %d, want 10", len(ops))
	}
	kinds := map[OpKind]int{}
	for _, op := range ops {
		kinds[op.Kind]++
	}
	if kinds[OpColGEMM] != 2 || kinds[OpRowGEMM] != 2 {
		t.Fatalf("GEMM boundary counts wrong: %v", kinds)
	}
	if kinds[OpLN] != 2 || kinds[OpAttention] != 1 {
		t.Fatalf("op mix wrong: %v", kinds)
	}
	bwd := LayerOps(m, Backward)
	if len(bwd) != 10 {
		t.Fatalf("backward ops = %d, want 10", len(bwd))
	}
	bk := map[OpKind]int{}
	for _, op := range bwd {
		bk[op.Kind]++
		if op.Kind == OpColGEMM || op.Kind == OpRowGEMM || op.Kind == OpAttention {
			if op.ComputeScale() != 2 {
				t.Fatalf("backward %s scale = %v, want 2 (dgrad+wgrad)", op.Name, op.ComputeScale())
			}
		}
	}
	if bk[OpColGEMM] != 2 || bk[OpRowGEMM] != 2 {
		t.Fatalf("backward GEMM boundary counts wrong: %v", bk)
	}
	// Mirrored communication: the backward pass starts from the gather
	// side (the forward RS point becomes a backward AG, Fig. 1b).
	firstGEMM := ""
	for _, op := range bwd {
		if op.Kind == OpColGEMM || op.Kind == OpRowGEMM {
			firstGEMM = op.Name
			break
		}
	}
	if firstGEMM != "ffn2-dgrad" {
		t.Fatalf("backward must start at the FFN2 dgrad gather, got %s", firstGEMM)
	}
}

func TestSubLayersMatchPaper(t *testing.T) {
	subs := SubLayers(config.LLaMA7B())
	if len(subs) != 4 {
		t.Fatalf("sub-layers = %d, want 4 (L1-L4)", len(subs))
	}
	for i, want := range []string{"L1", "L2", "L3", "L4"} {
		if subs[i].ID != want {
			t.Fatalf("sub-layer %d = %s, want %s", i, subs[i].ID, want)
		}
		if subs[i].RowGEMM.Kind != OpRowGEMM || subs[i].ColGEMM.Kind != OpColGEMM {
			t.Fatalf("%s: wrong pipeline structure", want)
		}
	}
	// Backward sub-layers carry the 2x compute scale.
	if subs[2].RowGEMM.ComputeScale() != 2 || subs[3].RowGEMM.ComputeScale() != 2 {
		t.Fatal("L3/L4 must be backward-scaled")
	}
}

func TestGEMMBuilderGrid(t *testing.T) {
	b := testBuilder(t)
	out := b.NewLocalGrid(512, 256)
	k := b.GEMM("g", 512, 256, 1024, 1, noInputs, out)
	if k.Grid != MTiles(512)*NTiles(256) {
		t.Fatalf("grid = %d", k.Grid)
	}
	d := k.Work(0, 0)
	if d.Flops != 2*128*128*1024 {
		t.Fatalf("flops = %v", d.Flops)
	}
	if len(d.Out) != 1 {
		t.Fatal("GEMM TB must publish its tile")
	}
}

// fullCoord enables every TB coordination mechanism.
var fullCoord = kernel.Coordination{PreLaunch: true, PreAccess: true, Throttle: true}

func TestFusedAGGEMMLoaderStructure(t *testing.T) {
	b := testBuilder(t)
	src := b.NewSharded(512)
	out := b.NewLocalGrid(512, 256)
	k := b.FusedAGGEMM("ag", src, 512, 256, 1024, 1, GatherCAIS, fullCoord, out)
	if k.Coord != fullCoord {
		t.Fatalf("coordination = %+v, want %+v", k.Coord, fullCoord)
	}
	nT := NTiles(256)
	// Loader TB of a remote block issues ld.cais; compute TBs depend on
	// the local copy.
	var remoteLoader, localLoader kernel.TBDesc
	for mi := 0; mi < 4; mi++ {
		d := k.Work(1, mi*nT) // gpu 1
		if b.owner(mi) == 1 {
			localLoader = d
		} else {
			remoteLoader = d
		}
	}
	if len(remoteLoader.Pre) != 1 || remoteLoader.Pre[0].Mode != noc.OpLdCAIS {
		t.Fatalf("remote loader access = %+v", remoteLoader.Pre)
	}
	if remoteLoader.Pre[0].Expected != b.P-1 {
		t.Fatalf("merge expected = %d, want P-1", remoteLoader.Pre[0].Expected)
	}
	if len(localLoader.Pre) != 1 || !localLoader.Pre[0].Local {
		t.Fatal("owner's loader must read locally")
	}
	compute := k.Work(1, 1) // ni=1
	if len(compute.Pre) != 0 || len(compute.In) != 1 {
		t.Fatalf("compute TB = %+v", compute)
	}
}

func TestFusedAGGEMMPerTBMode(t *testing.T) {
	b := testBuilder(t)
	src := b.NewSharded(512)
	out := b.NewLocalGrid(512, 256)
	k := b.FusedAGGEMM("ladm", src, 512, 256, 1024, 1, GatherPerTB, fullCoord, out)
	if k.Coord != (kernel.Coordination{}) {
		t.Fatal("LADM mode must not be coordinated")
	}
	nT := NTiles(256)
	// Every TB fetches: addresses unique per (gpu, tb) so nothing merges.
	a0 := k.Work(1, 0*nT+1).Pre[0]
	a1 := k.Work(2, 0*nT+1).Pre[0]
	if a0.Addr == a1.Addr {
		t.Fatal("per-TB loads must not share addresses")
	}
	if a0.Mode != noc.OpLoad {
		t.Fatalf("mode = %v, want plain ld", a0.Mode)
	}
}

func TestFusedGEMMReduceModes(t *testing.T) {
	b := testBuilder(t)
	for _, mode := range []ReduceMode{ReduceCAIS, ReduceP2PStore, ReduceNVLSPush, ReduceCAISBroadcast} {
		out := b.NewParts(512, 512)
		if mode == ReduceCAISBroadcast {
			out = b.NewLocalGrid(512, 512)
		}
		k := b.FusedGEMMReduce("rs", 512, 512, 256, 1, noInputs, mode, fullCoord, out)
		var remote kernel.Access
		found := false
		for tb := 0; tb < k.Grid && !found; tb++ {
			d := k.Work(0, tb)
			if len(d.Post) == 1 && !d.Post[0].Local {
				remote = d.Post[0]
				found = true
			}
		}
		if !found {
			t.Fatalf("mode %v: no remote reduction found", mode)
		}
		want := map[ReduceMode]noc.Op{
			ReduceCAIS:          noc.OpRedCAIS,
			ReduceP2PStore:      noc.OpStore,
			ReduceNVLSPush:      noc.OpMultimemRed,
			ReduceCAISBroadcast: noc.OpRedCAIS,
		}[mode]
		if remote.Mode != want {
			t.Fatalf("mode %v lowered to %v, want %v", mode, remote.Mode, want)
		}
		if remote.TileNeed != b.P {
			t.Fatalf("TileNeed = %d, want P", remote.TileNeed)
		}
		if remote.Broadcast != (mode == ReduceCAISBroadcast) {
			t.Fatalf("mode %v: broadcast = %v", mode, remote.Broadcast)
		}
		if cais := want == noc.OpRedCAIS; (k.Coord == fullCoord) != cais {
			t.Fatalf("mode %v: coordination = %+v; it applies to CAIS lowering only", mode, k.Coord)
		}
	}
}

// TestFusedGroupMembership pins who joins a TB group in the fused CAIS
// kernels: every non-owner GPU's TB, the owner's only under throttling
// with P > 1, never an AG-GEMM consumer, and every broadcast GEMM-AR TB
// with all P peers.
func TestFusedGroupMembership(t *testing.T) {
	// Each want is the group size a joining TB reports, or -1 for a TB
	// that must not join.
	cases := []struct {
		name                   string
		b                      *Builder
		coord                  kernel.Coordination
		owner, nonOwner, bcast int
	}{
		{"full coordination", testBuilder(t), fullCoord, 4, 4, 4},
		{"CAIS-w/o-Coord", testBuilder(t), kernel.Coordination{}, -1, 3, 4},
		{"one GPU", singleGPUBuilder(t), fullCoord, -1, -1, 1},
	}
	for _, c := range cases {
		b := c.b
		ag := b.FusedAGGEMM("ag", b.NewSharded(512), 512, 256, 1024, 1, GatherCAIS, c.coord, b.NewLocalGrid(512, 256))
		rs := b.FusedGEMMReduce("rs", 512, 512, 256, 1, noInputs, ReduceCAIS, c.coord, b.NewParts(512, 512))
		ar := b.FusedGEMMReduce("ar", 512, 512, 256, 1, noInputs, ReduceCAISBroadcast, c.coord, b.NewLocalGrid(512, 512))
		check := func(role string, k *kernel.Kernel, tb, peers int) {
			t.Helper()
			d := k.Work(0, tb) // GPU 0 owns row block 0
			wantGroup := tb
			if peers < 0 {
				wantGroup, peers = -1, 0
			}
			if d.Group != wantGroup || d.GroupPeers != peers {
				t.Errorf("%s: %s TB %d: group %d of %d, want %d of %d",
					c.name, role, tb, d.Group, d.GroupPeers, wantGroup, peers)
			}
		}
		agN, rsN := NTiles(256), NTiles(512)
		check("AG-GEMM owner loader", ag, 0, c.owner)
		check("AG-GEMM consumer", ag, 1, -1)
		check("GEMM-RS owner", rs, 0, c.owner)
		check("GEMM-AR broadcast", ar, 0, c.bcast)
		if b.P > 1 { // row block 1 belongs to GPU 1
			check("AG-GEMM non-owner loader", ag, agN, c.nonOwner)
			check("GEMM-RS non-owner", rs, rsN, c.nonOwner)
		}
	}
}

func TestCommKernelShapes(t *testing.T) {
	b := testBuilder(t)
	copies := b.NewGathered(512)
	in := func(g, mi, ni int) []kernel.Tile { return nil }

	ag := b.NVLSAllGather("ag", 1024, in, copies)
	if ag.Kind != kernel.KindComm || ag.CommSMs != b.M.HW.CommSMs {
		t.Fatal("AG must be a comm kernel on CommSMs")
	}
	// The owner's TB pushes with multimem.st and publishes its own copy.
	ownerTB := ag.Work(b.owner(0), 0)
	if len(ownerTB.Post) != 1 || ownerTB.Post[0].Mode != noc.OpMultimemST {
		t.Fatalf("owner AG TB = %+v", ownerTB.Post)
	}
	if ownerTB.Post[0].PublishEach.Buf == 0 {
		t.Fatal("multicast must publish per receiver")
	}
	// Non-owners do nothing.
	other := ag.Work((b.owner(0)+1)%b.P, 0)
	if len(other.Post) != 0 {
		t.Fatal("non-owner AG TB must be empty")
	}

	parts := b.NewParts(512, 512)
	rs := b.NVLSReduceScatter("rs", 512, 512, in, parts)
	ownerRS := rs.Work(0, 0) // row block 0's owner is GPU 0 (mi % P)
	if len(ownerRS.Pre) != 1 || ownerRS.Pre[0].Mode != noc.OpMultimemLdReduce {
		t.Fatalf("owner RS TB = %+v", ownerRS.Pre)
	}

	outAR := b.NewLocalGrid(512, 512)
	ar := b.NVLSAllReduce("ar", 512, 512, in, outAR)
	tb := ar.Work(2, 5)
	if len(tb.Post) != 1 || tb.Post[0].Mode != noc.OpMultimemRed {
		t.Fatalf("AR TB = %+v", tb.Post)
	}
	if tb.Post[0].Home != -1 {
		t.Fatal("AR push must broadcast (Home -1)")
	}
}

func TestRingKernelsHopStructure(t *testing.T) {
	b := testBuilder(t)
	copies := b.NewGathered(512)
	in := func(g, mi, ni int) []kernel.Tile { return nil }
	ag := b.RingAllGather("ring-ag", 1024, in, copies)
	// Owner forwards its block to the next GPU; the GPU before the owner
	// does not forward (the ring ends there).
	owner := b.owner(0)
	ownerTB := ag.Work(owner, 0)
	if len(ownerTB.Post) != 1 || ownerTB.Post[0].Home != (owner+1)%b.P {
		t.Fatalf("owner must forward to the next GPU: %+v", ownerTB.Post)
	}
	last := (owner - 1 + b.P) % b.P
	if lastTB := ag.Work(last, 0); len(lastTB.Post) != 0 {
		t.Fatal("the GPU before the owner must not forward")
	}

	outAR := b.NewLocalGrid(256, 256)
	ar := b.RingAllReduce("ring-ar", 256, 256, in, outAR)
	if ar.Grid != 2*MTiles(256)*NTiles(256) {
		t.Fatalf("ring AR grid = %d, want two phases", ar.Grid)
	}
}

func TestGateKernel(t *testing.T) {
	b := testBuilder(t)
	grid := b.NewLocalGrid(4*TileM, 2*TileN)
	k, gate := b.GateKernel("gate", 4, grid)
	if k.Grid != 4 {
		t.Fatalf("grid = %d", k.Grid)
	}
	d := k.Work(2, 3)
	want := []kernel.Tile{grid.Tile(3, 0, 2), grid.Tile(3, 1, 2)}
	if len(d.In) != 2 || d.In[0] != want[0] || d.In[1] != want[1] || len(d.Out) != 1 || d.Out[0] != gate.Tile(3, 2) {
		t.Fatalf("gate TB = %+v, want In %v", d, want)
	}
}

// TestGateChunksPartitionRows: with more chunks than row blocks, fewer,
// or a count that does not divide them, each row block belongs to exactly
// one chunk, and chunk c's gate waits on GPU g's copy of exactly the
// blocks whose Chunk is c, in row order.
func TestGateChunksPartitionRows(t *testing.T) {
	b := testBuilder(t)
	for _, c := range []struct{ rows, chunks int }{{2, 4}, {5, 4}, {8, 4}, {7, 3}, {1, 1}} {
		grid := b.NewLocalGrid(c.rows*TileM, 2*TileN)
		k, gate := b.GateKernel("gate", c.chunks, grid)
		for ch := 0; ch < c.chunks; ch++ {
			var want []kernel.Tile
			for mi := 0; mi < c.rows; mi++ {
				if gate.Chunk(mi) == ch {
					want = append(want, grid.Tile(mi, 0, 1), grid.Tile(mi, 1, 1))
				}
			}
			got := k.Work(1, ch).In
			if len(got) != len(want) {
				t.Fatalf("%d rows in %d chunks: chunk %d waits on %v, want %v", c.rows, c.chunks, ch, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%d rows in %d chunks: chunk %d waits on %v, want %v", c.rows, c.chunks, ch, got, want)
				}
			}
		}
	}
}

// TestRowOpOwnership: on a one-copy output only the row owner's TB works;
// on an output with a copy per GPU every GPU's TB works on its own copy.
func TestRowOpOwnership(t *testing.T) {
	b := testBuilder(t)
	in := func(g, mi, ni int) []kernel.Tile { return []kernel.Tile{{Buf: 99, Idx: mi}} }
	sharded := b.NewSharded(4 * TileM)
	k := b.RowOp("ln", kernel.KindLN, 3, in, sharded)
	for mi := 0; mi < 4; mi++ {
		for g := 0; g < b.P; g++ {
			d := k.Work(g, mi)
			if works := d.LocalBytes != 0; works != (g == b.owner(mi)) {
				t.Fatalf("sharded LN: GPU %d on block %d works = %v", g, mi, works)
			}
			if g == b.owner(mi) && (len(d.In) != 1 || len(d.Out) != 1 || d.Out[0] != sharded.Tile(mi, 0, g)) {
				t.Fatalf("sharded LN: owner TB %d = %+v", mi, d)
			}
		}
	}
	grid := b.NewLocalGrid(2*TileM, 3*TileN)
	k = b.RowOp("gelu", kernel.KindElemwise, 2, in, grid)
	if k.Grid != 6 {
		t.Fatalf("grid = %d, want one TB per block", k.Grid)
	}
	if d := k.Work(3, 5); d.LocalBytes != 2 || len(d.Out) != 1 || d.Out[0] != grid.Tile(1, 2, 3) {
		t.Fatalf("GeLU TB (1, 2) on GPU 3 = %+v", d)
	}
}

func TestMNTiles(t *testing.T) {
	if MTiles(128) != 1 || MTiles(129) != 2 || NTiles(4096) != 32 {
		t.Fatal("tile math wrong")
	}
}

func singleGPUBuilder(t *testing.T) *Builder {
	t.Helper()
	hw := config.DGXH100()
	hw.NumGPUs = 1
	hw.NumSwitchPlanes = 1
	hw.RequestBytes = 8 << 10
	eng := sim.NewEngine()
	return NewBuilder(machine.New(eng, hw, machine.Options{}))
}

func TestCollectivesDegenerateAtP1(t *testing.T) {
	// With one GPU every collective becomes a local republish on the comm
	// kernel's SMs: TB (mi, ni) reads its input and publishes block
	// (mi, ni) once, with no accesses at all.
	b := singleGPUBuilder(t)
	in := func(g, mi, ni int) []kernel.Tile { return []kernel.Tile{{Buf: 99, Idx: mi*100 + ni}} }
	copies := b.NewGathered(256)
	parts := b.NewParts(256, 512)
	outAR := b.NewLocalGrid(256, 512)
	rows := func(mi, ni int) kernel.Tile { return copies.Tile(mi, 0, 0) }
	grid := func(out Tensor) func(mi, ni int) kernel.Tile {
		return func(mi, ni int) kernel.Tile { return out.Tile(mi, ni, 0) }
	}
	for _, c := range []struct {
		k      *kernel.Kernel
		nTiles int
		block  func(mi, ni int) kernel.Tile
	}{
		{b.NVLSAllGather("ag", 256, in, copies), 1, rows},
		{b.RingAllGather("rag", 256, in, copies), 1, rows},
		{b.P2PAllGather("pag", 256, in, copies), 1, rows},
		{b.NVLSReduceScatter("rs", 256, 512, in, parts), 4, grid(parts)},
		{b.RingReduceScatter("rrs", 256, 512, in, parts), 4, grid(parts)},
		{b.NVLSAllReduce("ar", 256, 512, in, outAR), 4, grid(outAR)},
		{b.RingAllReduce("rar", 256, 512, in, outAR), 4, grid(outAR)},
	} {
		k := c.k
		if k.Kind != kernel.KindComm || k.CommSMs != b.M.HW.CommSMs {
			t.Errorf("%s: kind %v on %d SMs, want a comm kernel on CommSMs (%d)", k.Name, k.Kind, k.CommSMs, b.M.HW.CommSMs)
		}
		if want := MTiles(256) * c.nTiles; k.Grid != want {
			t.Errorf("%s: grid = %d, want one TB per block (%d)", k.Name, k.Grid, want)
		}
		for tb := 0; tb < k.Grid; tb++ {
			mi, ni := tb/c.nTiles, tb%c.nTiles
			d := k.Work(0, tb)
			if len(d.In) != 1 || d.In[0] != in(0, mi, ni)[0] {
				t.Errorf("%s: TB (%d, %d) reads %v, want in(0, %d, %d)", k.Name, mi, ni, d.In, mi, ni)
			}
			if len(d.Out) != 1 || d.Out[0] != c.block(mi, ni) || len(d.Pre)+len(d.Post) != 0 {
				t.Errorf("%s: TB (%d, %d) publishes %v with accesses %v %v, want block %v once",
					k.Name, mi, ni, d.Out, d.Pre, d.Post, c.block(mi, ni))
			}
		}
	}
}

func TestAttentionWorkStructure(t *testing.T) {
	b := testBuilder(t)
	// 2 batches x 2 local heads x seq 256 (head dim 128).
	qkv := b.NewLocalGrid(512, 512)
	out := b.NewLocalGrid(512, 256)
	k := b.Attention("attn", 2, 2, 256, 128, 2, qkv, out)
	sT := MTiles(256)
	if k.Grid != 2*2*sT {
		t.Fatalf("grid = %d, want %d", k.Grid, 2*2*sT)
	}
	d := k.Work(0, 0)
	if len(d.In) != sT {
		t.Fatalf("attention TB deps = %d, want the full K/V column (%d)", len(d.In), sT)
	}
	if d.Flops != 4*128*256*128*2 {
		t.Fatalf("attention flops = %v", d.Flops)
	}
	// Batch 1's TBs read batch 1's token rows.
	d2 := k.Work(0, 2*sT) // first TB of batch 1
	if d2.In[0] == d.In[0] {
		t.Fatal("batches must depend on distinct token rows")
	}
}

func TestKernelAggregateHelpers(t *testing.T) {
	b := testBuilder(t)
	src := b.NewSharded(512)
	out := b.NewLocalGrid(512, 256)
	k := b.FusedAGGEMM("agg", src, 512, 256, 1024, 1, GatherCAIS, fullCoord, out)
	if k.TotalFlops(0) <= 0 {
		t.Fatal("no compute")
	}
	// Remote bytes: each GPU loads the 3 remote row blocks of 4.
	wantRemote := int64(3) * b.rowBytes(1024)
	if got := remoteBytes(k, 1); got != wantRemote {
		t.Fatalf("remote bytes = %d, want %d", got, wantRemote)
	}
}

// noInputs is the empty dependency wiring.
func noInputs(gpu, mi, ni int) []kernel.Tile { return nil }

// remoteBytes sums a kernel's non-local access bytes across the grid on
// one GPU.
func remoteBytes(k *kernel.Kernel, gpu int) int64 {
	var total int64
	for tb := 0; tb < k.Grid; tb++ {
		d := k.Work(gpu, tb)
		for _, accs := range [][]kernel.Access{d.Pre, d.Post} {
			for _, a := range accs {
				if !a.Local {
					total += a.Bytes
				}
			}
		}
	}
	return total
}
