package gpu

import (
	"reflect"
	"testing"

	"cais/internal/kernel"
	"cais/internal/noc"
	"cais/internal/sim"
)

// loopback is a minimal fabric: it answers load requests with data and
// lets everything else fall to the GPU or a recorder.
type loopback struct {
	eng   *sim.Engine
	gpus  []*GPU
	syncs []syncKey // Group Sync Table registrations, in arrival order
}

func (lb *loopback) Receive(p *noc.Packet) {
	switch p.Op {
	case noc.OpLoad, noc.OpLdCAIS:
		resp := &noc.Packet{
			Op: noc.OpLoadResp, Addr: p.Addr, Home: p.Home,
			Src: p.Home, Dst: p.Src, Size: p.Size,
			OnDone: p.OnDone, Tag: p.Tag,
		}
		// Deliver straight to the requester.
		lb.eng.After(500*sim.Nanosecond, func() { lb.gpus[p.Src].Receive(resp) })
	case noc.OpRedCAIS, noc.OpStore:
		out := *p
		out.Contribs = p.Expected()
		lb.eng.After(500*sim.Nanosecond, func() {
			lb.gpus[p.Home].Receive(&out)
			if p.OnAccepted != nil {
				p.OnAccepted()
			}
			if p.OnDone != nil {
				p.OnDone()
			}
		})
	case noc.OpSyncRequest:
		lb.syncs = append(lb.syncs, syncKey{group: p.Group, phase: int(p.Addr)})
		// Single-GPU harness: release immediately.
		lb.eng.After(500*sim.Nanosecond, func() {
			lb.gpus[p.Src].Receive(&noc.Packet{Op: noc.OpSyncRelease, Addr: p.Addr, Group: p.Group, Dst: p.Src})
		})
	}
}

type recSink struct {
	data     []noc.Op
	accesses []kernel.Access
}

func (r *recSink) RouteAddr(addr uint64) int           { return int(addr % 2) }
func (r *recSink) RouteGroup(group int) int            { return group % 2 }
func (r *recSink) OnData(g int, p *noc.Packet)         { r.data = append(r.data, p.Op) }
func (r *recSink) OnAccessDone(g int, a kernel.Access) { r.accesses = append(r.accesses, a) }

func newHarness(t *testing.T) (*sim.Engine, *GPU, *loopback, *recSink) {
	t.Helper()
	eng := sim.NewEngine()
	eng.SetStepLimit(1_000_000)
	hw := testHardware()
	hw.NumGPUs = 1 // groups expect only this GPU
	lb := &loopback{eng: eng}
	sink := &recSink{}
	g := New(eng, 0, hw, sink, &noc.PacketPool{}, nil)
	for p := 0; p < hw.NumSwitchPlanes; p++ {
		g.ConnectUp(p, noc.NewLink(eng, 100e9, 250*sim.Nanosecond, lb))
	}
	lb.gpus = []*GPU{g}
	return eng, g, lb, sink
}

func TestLaunchLifecycleWithLoadsComputeAndPosts(t *testing.T) {
	eng, g, lb, sink := newHarness(t)
	copyTile := kernel.Tile{Buf: 1, Idx: 0}
	k := &kernel.Kernel{
		Name: "lifecycle", Grid: 3,
		Coord: kernel.Coordination{PreLaunch: true, PreAccess: true},
		Work: func(gpu, tb int) kernel.TBDesc {
			switch tb {
			case 0:
				return kernel.TBDesc{
					Flops: 1e8, Group: 0, GroupPeers: 1,
					Pre: []kernel.Access{{
						Sem: kernel.SemRead, Mode: noc.OpLdCAIS,
						Addr: 100, Home: 0, Bytes: 4 << 10, Expected: 1,
						Publish: []kernel.Tile{copyTile},
					}},
					Post: []kernel.Access{{
						Sem: kernel.SemReduce, Mode: noc.OpRedCAIS,
						Addr: 200, Home: 0, Bytes: 2 << 10, Expected: 1, TileNeed: 1,
					}},
				}
			case 1:
				// A grouped TB with only a local reduction (a row owner's
				// own partial): membership alone makes it synchronize,
				// before launch and before its reduction, never before
				// loads it does not issue.
				return kernel.TBDesc{
					Flops: 1e8, Group: 1, GroupPeers: 1,
					Post: []kernel.Access{{
						Sem: kernel.SemReduce, Mode: noc.OpStore, Local: true,
						Addr: 300, Home: 0, Bytes: 2 << 10, TileNeed: 1,
					}},
				}
			}
			return kernel.TBDesc{Flops: 1e8, Group: -1}
		},
	}
	retired := map[int]bool{}
	done := false
	eng.At(0, func() {
		l := g.Launch(k, LaunchOpts{
			LaunchID: 1, GroupBase: 10,
			OnTBRetire: func(tb int, _ []kernel.Tile) { retired[tb] = true },
			OnDone:     func() { done = true },
		})
		for tb := 0; tb < k.Grid; tb++ {
			l.MarkEligible(tb)
		}
	})
	eng.Run()
	if !done || len(retired) != k.Grid {
		t.Fatalf("lifecycle incomplete: done=%v retired=%v", done, retired)
	}
	// Each grouped TB registers at every phase its accesses give it; the
	// ungrouped TB registers nothing.
	phases := map[int][]string{}
	for _, s := range lb.syncs {
		phases[s.group] = append(phases[s.group], phaseName(s.phase))
	}
	want := map[int][]string{
		10: {"pre-launch", "pre-load", "pre-reduce"},
		11: {"pre-launch", "pre-reduce"},
	}
	if !reflect.DeepEqual(phases, want) {
		t.Fatalf("sync registrations by group = %v, want %v", phases, want)
	}
	// The load completed and published its copy tile at the issuer.
	foundPublish := false
	for _, a := range sink.accesses {
		if a.Sem == kernel.SemRead && len(a.Publish) == 1 {
			foundPublish = true
		}
	}
	if !foundPublish {
		t.Fatal("load completion did not publish at the issuer")
	}
	// The reduction arrived at the home GPU's sink.
	foundRed := false
	for _, op := range sink.data {
		if op == noc.OpRedCAIS {
			foundRed = true
		}
	}
	if !foundRed {
		t.Fatal("reduction never committed at the home GPU")
	}
	if g.FreeSlots() != testHardwareSlots() {
		t.Fatalf("slots leaked: %d free", g.FreeSlots())
	}
}

func testHardwareSlots() int { return testHardware().SMsPerGPU }

func TestLaunchBuffersEligibilityUntilReady(t *testing.T) {
	eng, g, _, _ := newHarness(t)
	started := sim.Time(-1)
	k := &kernel.Kernel{
		Name: "buffered", Grid: 1,
		Work: func(gpu, tb int) kernel.TBDesc {
			return kernel.TBDesc{Flops: 1e7, Group: -1}
		},
	}
	eng.At(0, func() {
		l := g.Launch(k, LaunchOpts{LaunchID: 2, OnTBRetire: func(int, []kernel.Tile) { started = eng.Now() }})
		l.MarkEligible(0) // before readyAt: must be buffered, not lost
	})
	eng.Run()
	if started < 0 {
		t.Fatal("buffered TB never ran")
	}
	hw := testHardware()
	if started < hw.KernelLaunchOverhead {
		t.Fatalf("TB ran before the launch overhead elapsed: %v", started)
	}
}

func TestLaunchMultipleKernelsShareSlotsRoundRobin(t *testing.T) {
	eng, g, _, _ := newHarness(t)
	runs := map[string]int{}
	mk := func(name string) *kernel.Kernel {
		return &kernel.Kernel{
			Name: name, Grid: 8,
			Work: func(gpu, tb int) kernel.TBDesc {
				return kernel.TBDesc{Flops: 1e8, Group: -1}
			},
		}
	}
	eng.At(0, func() {
		for _, name := range []string{"a", "b"} {
			name := name
			l := g.Launch(mk(name), LaunchOpts{LaunchID: 3, OnTBRetire: func(int, []kernel.Tile) { runs[name]++ }})
			for tb := 0; tb < 8; tb++ {
				l.MarkEligible(tb)
			}
		}
	})
	eng.Run()
	if runs["a"] != 8 || runs["b"] != 8 {
		t.Fatalf("runs = %v", runs)
	}
}

func TestCommSMsPartitionCap(t *testing.T) {
	_, g, _, _ := newHarness(t)
	k := &kernel.Kernel{Name: "comm", Grid: 1, CommSMs: 2,
		Work: func(gpu, tb int) kernel.TBDesc { return kernel.TBDesc{} }}
	if got := g.partitionFor(k); got != 2 {
		t.Fatalf("comm partition = %d, want 2", got)
	}
	k.CommSMs = 10_000
	if got := g.partitionFor(k); got != testHardwareSlots() {
		t.Fatalf("oversize comm partition = %d, want clamp to pool", got)
	}
}
