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
	// loadsWithOnDone counts load requests that carried an OnDone: a load
	// completes through its tag alone.
	loadsWithOnDone int
}

func (lb *loopback) Receive(p *noc.Packet) {
	switch p.Op {
	case noc.OpLoad, noc.OpLdCAIS, noc.OpMultimemLdReduce:
		if p.OnDone != nil {
			lb.loadsWithOnDone++
		}
		// The response copies only the tag, as the home GPU, the merge
		// unit and an NVLS pull do.
		resp := &noc.Packet{
			Op: noc.OpLoadResp, Addr: p.Addr, Home: p.Home,
			Src: p.Home, Dst: p.Src, Size: p.Size, Tag: p.Tag,
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

// delivery is one Host.Deliver call.
type delivery struct {
	a     *kernel.Access
	bytes int64
}

// recSink is the Host of the harness: it records deliveries and the Out
// tiles retiring TBs publish, with the time each was published.
type recSink struct {
	eng         *sim.Engine
	delivered   []delivery
	published   []kernel.Tile
	publishedAt []sim.Time
}

func (r *recSink) RouteAddr(addr uint64) int { return int(addr % 2) }
func (r *recSink) RouteGroup(group int) int  { return group % 2 }
func (r *recSink) Deliver(g int, a *kernel.Access, bytes int64) {
	r.delivered = append(r.delivered, delivery{a, bytes})
}
func (r *recSink) PublishTiles(tiles []kernel.Tile) {
	for _, t := range tiles {
		r.published = append(r.published, t)
		r.publishedAt = append(r.publishedAt, r.eng.Now())
	}
}

// retired reports, per TB index, whether TB idx's Out tile of buffer buf
// has been published.
func (r *recSink) retired(buf int) map[int]bool {
	got := map[int]bool{}
	for _, t := range r.published {
		if t.Buf == buf {
			got[t.Idx] = true
		}
	}
	return got
}

// outTile is TB tb's retirement tile in buffer buf.
func outTile(buf, tb int) []kernel.Tile { return []kernel.Tile{{Buf: buf, Idx: tb}} }

func newHarness(t *testing.T) (*sim.Engine, *GPU, *loopback, *recSink) {
	t.Helper()
	eng := sim.NewEngine()
	eng.SetStepLimit(1_000_000)
	hw := testHardware()
	hw.NumGPUs = 1 // groups expect only this GPU
	lb := &loopback{eng: eng}
	sink := &recSink{eng: eng}
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
	const outBuf = 9
	k := &kernel.Kernel{
		Name: "lifecycle", Grid: 3,
		Coord: kernel.Coordination{PreLaunch: true, PreAccess: true},
		Work: func(gpu, tb int) kernel.TBDesc {
			switch tb {
			case 0:
				return kernel.TBDesc{
					Flops: 1e8, Group: 0, GroupPeers: 1, Out: outTile(outBuf, tb),
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
					Flops: 1e8, Group: 1, GroupPeers: 1, Out: outTile(outBuf, tb),
					Post: []kernel.Access{{
						Sem: kernel.SemReduce, Mode: noc.OpStore, Local: true,
						Addr: 300, Home: 0, Bytes: 2 << 10, TileNeed: 1,
					}},
				}
			}
			return kernel.TBDesc{Flops: 1e8, Group: -1, Out: outTile(outBuf, tb)}
		},
	}
	done := false
	eng.At(0, func() {
		l := g.Launch(k, 1, 10, func() { done = true })
		for tb := 0; tb < k.Grid; tb++ {
			l.MarkEligible(tb)
		}
	})
	eng.Run()
	if retired := sink.retired(outBuf); !done || len(retired) != k.Grid {
		t.Fatalf("lifecycle incomplete: done=%v retired=%v", done, retired)
	}
	if lb.loadsWithOnDone != 0 {
		t.Fatalf("%d load requests carried an OnDone, want none", lb.loadsWithOnDone)
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
	// The load completed and delivered its whole access at the issuer;
	// the reduction's two 1 KB chunks each delivered their bytes at the
	// home GPU. The local reduction publishes nothing, so it is not
	// delivered.
	var loadBytes, redBytes int64
	for _, d := range sink.delivered {
		switch d.a.Mode {
		case noc.OpLdCAIS:
			loadBytes += d.bytes
		case noc.OpRedCAIS:
			redBytes += d.bytes
		default:
			t.Errorf("unexpected delivery of %v access", d.a.Mode)
		}
	}
	if loadBytes != 4<<10 {
		t.Fatalf("load delivered %d bytes at the issuer, want the access's 4096", loadBytes)
	}
	if redBytes != 2<<10 {
		t.Fatalf("reduction delivered %d bytes at the home GPU, want 2048", redBytes)
	}
	if g.slotsFree != testHardwareSlots() {
		t.Fatalf("slots leaked: %d free", g.slotsFree)
	}
}

// TestLoadsCompleteThroughTheirTag: ld, ld.cais and multimem.ld_reduce
// each split into three chunks, carry no OnDone, and complete at the
// issuer through the tag their responses copy.
func TestLoadsCompleteThroughTheirTag(t *testing.T) {
	eng, g, lb, sink := newHarness(t)
	modes := []noc.Op{noc.OpLoad, noc.OpLdCAIS, noc.OpMultimemLdReduce}
	const bytes = 20 << 10 // three chunks at 8 KB requests
	k := &kernel.Kernel{
		Name: "loads", Grid: 1,
		Work: func(gpu, tb int) kernel.TBDesc {
			d := kernel.TBDesc{Flops: 1e7, Group: -1}
			for i, op := range modes {
				d.Pre = append(d.Pre, kernel.Access{
					Sem: kernel.SemRead, Mode: op, Addr: uint64(100 * (i + 1)), Home: 0,
					Bytes: bytes, Expected: 1, Publish: []kernel.Tile{{Buf: 1, Idx: i}},
				})
			}
			return d
		},
	}
	done := false
	eng.At(0, func() { g.Launch(k, 1, 0, func() { done = true }).MarkEligible(0) })
	eng.Run()
	if !done {
		t.Fatal("a TB waiting on its loads never retired")
	}
	got := map[noc.Op]int64{}
	for _, d := range sink.delivered {
		got[d.a.Mode] += d.bytes
	}
	for _, op := range modes {
		if got[op] != bytes {
			t.Errorf("%v delivered %d bytes at the issuer, want %d", op, got[op], bytes)
		}
	}
	if lb.loadsWithOnDone != 0 {
		t.Fatalf("%d load requests carried an OnDone, want none", lb.loadsWithOnDone)
	}
}

// TestUntaggedDataDeliversNothing: a committed data packet delivers the
// access it carries as its tag; one without a tag commits to HBM and
// delivers nothing.
func TestUntaggedDataDeliversNothing(t *testing.T) {
	eng, g, _, sink := newHarness(t)
	done := false
	eng.At(0, func() {
		g.Receive(&noc.Packet{Op: noc.OpStore, Size: 128, OnDone: func() { done = true }})
	})
	eng.Run()
	if !done {
		t.Fatal("untagged store never committed")
	}
	if len(sink.delivered) != 0 {
		t.Fatalf("untagged store delivered %d times, want none", len(sink.delivered))
	}
}

func testHardwareSlots() int { return testHardware().SMsPerGPU }

func TestLaunchBuffersEligibilityUntilReady(t *testing.T) {
	eng, g, _, sink := newHarness(t)
	k := &kernel.Kernel{
		Name: "buffered", Grid: 1,
		Work: func(gpu, tb int) kernel.TBDesc {
			return kernel.TBDesc{Flops: 1e7, Group: -1, Out: outTile(1, tb)}
		},
	}
	eng.At(0, func() {
		l := g.Launch(k, 2, 0, nil)
		l.MarkEligible(0) // before the launch starts: must be buffered, not lost
	})
	eng.Run()
	if len(sink.publishedAt) != 1 {
		t.Fatal("buffered TB never ran")
	}
	hw := testHardware()
	if retired := sink.publishedAt[0]; retired < hw.KernelLaunchOverhead {
		t.Fatalf("TB ran before the launch overhead elapsed: %v", retired)
	}
}

func TestLaunchMultipleKernelsShareSlotsRoundRobin(t *testing.T) {
	eng, g, _, sink := newHarness(t)
	// Kernel i's TBs publish their Out tiles in buffer i.
	mk := func(name string, buf int) *kernel.Kernel {
		return &kernel.Kernel{
			Name: name, Grid: 8,
			Work: func(gpu, tb int) kernel.TBDesc {
				return kernel.TBDesc{Flops: 1e8, Group: -1, Out: outTile(buf, tb)}
			},
		}
	}
	eng.At(0, func() {
		for i, name := range []string{"a", "b"} {
			l := g.Launch(mk(name, i+1), 3, 0, nil)
			for tb := 0; tb < 8; tb++ {
				l.MarkEligible(tb)
			}
		}
	})
	eng.Run()
	if a, b := len(sink.retired(1)), len(sink.retired(2)); a != 8 || b != 8 {
		t.Fatalf("retired TBs: a=%d b=%d, want 8 each", a, b)
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
