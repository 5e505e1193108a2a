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
	s := Sharded{Buf: 7, MTiles: 16, P: 4}
	// Block-cyclic ownership.
	for mi := 0; mi < 16; mi++ {
		if s.Owner(mi) != mi%4 {
			t.Fatalf("owner(%d) = %d, want %d", mi, s.Owner(mi), mi%4)
		}
	}
	if (Sharded{P: 1}).Owner(5) != 0 {
		t.Fatal("single-GPU owner must be 0")
	}
	g := Gathered{Buf: 8, MTiles: 16, P: 4}
	if g.Tile(3, 2) == g.Tile(3, 1) || g.Tile(3, 2) == g.Tile(2, 2) {
		t.Fatal("gathered tiles must be distinct per (block, gpu)")
	}
	l := LocalGrid{Buf: 9, MTiles: 4, NTiles: 3, P: 4}
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
	if len(l.RowTiles(2, 1, nil)) != 3 {
		t.Fatal("RowTiles must span NTiles")
	}
}

func TestOwnershipBalancedProperty(t *testing.T) {
	f := func(mt uint8, p uint8) bool {
		P := int(p%8) + 1
		MT := int(mt) + P // at least one block per GPU
		s := Sharded{MTiles: MT, P: P}
		counts := make([]int, P)
		for mi := 0; mi < MT; mi++ {
			counts[s.Owner(mi)]++
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
	k := b.GEMM("g", 512, 256, 1024, 1, NoInputs, out)
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
		if src.Owner(mi) == 1 {
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
		k := b.FusedGEMMReduce("rs", 512, 512, 256, 1, NoInputs, mode, fullCoord, out)
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
		rs := b.FusedGEMMReduce("rs", 512, 512, 256, 1, NoInputs, ReduceCAIS, c.coord, b.NewParts(512, 512))
		ar := b.FusedGEMMReduce("ar", 512, 512, 256, 1, NoInputs, ReduceCAISBroadcast, c.coord, b.NewLocalGrid(512, 512))
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
	src := b.NewSharded(512)
	copies := b.NewGathered(512)
	in := func(g, mi, ni int) []kernel.Tile { return nil }

	ag := b.NVLSAllGather("ag", src, 1024, in, copies)
	if ag.Kind != kernel.KindComm || ag.CommSMs != b.M.HW.CommSMs {
		t.Fatal("AG must be a comm kernel on CommSMs")
	}
	// The owner's TB pushes with multimem.st and publishes its own copy.
	ownerTB := ag.Work(src.Owner(0), 0)
	if len(ownerTB.Post) != 1 || ownerTB.Post[0].Mode != noc.OpMultimemST {
		t.Fatalf("owner AG TB = %+v", ownerTB.Post)
	}
	if ownerTB.Post[0].PublishEach.Buf == 0 {
		t.Fatal("multicast must publish per receiver")
	}
	// Non-owners do nothing.
	other := ag.Work((src.Owner(0)+1)%b.P, 0)
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
	src := b.NewSharded(512)
	copies := b.NewGathered(512)
	in := func(g, mi, ni int) []kernel.Tile { return nil }
	ag := b.RingAllGather("ring-ag", src, 1024, in, copies)
	// Owner forwards its block to the next GPU; the GPU before the owner
	// does not forward (the ring ends there).
	owner := src.Owner(0)
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
	k, gate := b.GateKernel("gate", 4, func(g, c int) []kernel.Tile {
		return []kernel.Tile{{Buf: 1, Idx: c}}
	})
	if k.Grid != 4 {
		t.Fatalf("grid = %d", k.Grid)
	}
	d := k.Work(2, 3)
	if len(d.In) != 1 || len(d.Out) != 1 || d.Out[0] != gate(3, 2) {
		t.Fatalf("gate TB = %+v", d)
	}
}

func TestMNTiles(t *testing.T) {
	if MTiles(128) != 1 || MTiles(129) != 2 || NTiles(4096) != 32 {
		t.Fatal("tile math wrong")
	}
	if CommVolume(9216, 4096, 2) != int64(9216)*4096*2 {
		t.Fatal("comm volume wrong")
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
	// With one GPU every collective becomes a local republish: no remote
	// accesses at all.
	b := singleGPUBuilder(t)
	in := func(g, mi, ni int) []kernel.Tile { return nil }
	src := b.NewSharded(256)
	copies := b.NewGathered(256)
	parts := b.NewParts(256, 256)
	outAR := b.NewLocalGrid(256, 256)
	kernels := []*kernel.Kernel{
		b.NVLSAllGather("ag", src, 256, in, copies),
		b.RingAllGather("rag", src, 256, in, copies),
		b.P2PAllGather("pag", src, 256, in, copies),
		b.NVLSReduceScatter("rs", 256, 256, in, parts),
		b.RingReduceScatter("rrs", 256, 256, in, parts),
		b.NVLSAllReduce("ar", 256, 256, in, outAR),
		b.RingAllReduce("rar", 256, 256, in, outAR),
	}
	for _, k := range kernels {
		if got := k.RemoteBytes(0); got != 0 {
			t.Errorf("%s: remote bytes = %d at P=1, want 0", k.Name, got)
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
	if got := k.RemoteBytes(1); got != wantRemote {
		t.Fatalf("remote bytes = %d, want %d", got, wantRemote)
	}
}
