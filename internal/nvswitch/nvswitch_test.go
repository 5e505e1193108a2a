package nvswitch

import (
	"testing"

	"cais/internal/config"
	"cais/internal/metrics"
	"cais/internal/noc"
	"cais/internal/sim"
)

// testHW is the hardware of an n-GPU test plane: DGX-H100's 50 ns switch
// latency with the given merging-table capacity, timeout and
// credit-return latency (the switch reads the latter from LinkLatency).
func testHW(n int, capacity int64, timeout, credit sim.Time) config.Hardware {
	hw := config.DGXH100()
	hw.NumGPUs = n
	hw.MergeTableBytes = capacity
	hw.MergeTimeout = timeout
	hw.LinkLatency = credit
	return hw
}

// newSwitch builds plane 0 of hw with a fresh registry and packet pool
// and no tracer; route maps a sync group to the plane serving it.
func newSwitch(eng *sim.Engine, hw config.Hardware, eviction EvictionPolicy, route func(group int) int) *Switch {
	return New(eng, hw, 0, eviction, route, metrics.NewRegistry(), &noc.PacketPool{}, nil)
}

// planeZero routes every sync group to the test switch, plane 0.
func planeZero(int) int { return 0 }

// loadTag stands in for the issuing GPU's access context: every response
// to a load copies the load's tag, and the fake GPU completes the load by
// counting the responses that carry it.
type loadTag struct{ done int }

// fakeGPU is a minimal GPU endpoint: it answers read requests immediately,
// completes loads by their tag and everything else by OnDone, and records
// everything it receives.
type fakeGPU struct {
	id       int
	up       *noc.Link
	received []*noc.Packet
}

func (g *fakeGPU) Receive(p *noc.Packet) {
	g.received = append(g.received, p)
	switch p.Op {
	case noc.OpLoadResp:
		if tag, ok := p.Tag.(*loadTag); ok {
			tag.done++
		}
	case noc.OpLoad:
		g.up.Send(&noc.Packet{
			Op: noc.OpLoadResp, Addr: p.Addr, Home: g.id,
			Src: g.id, Dst: p.Src, Size: p.Size, Tag: p.Tag,
		})
	case noc.OpReadFan:
		g.up.Send(&noc.Packet{
			Op: noc.OpLoadResp, Addr: p.Addr, Home: g.id,
			Src: g.id, Dst: p.Src, Size: p.Size, Tag: p.Tag,
		})
	default:
		if p.OnDone != nil {
			p.OnDone()
		}
	}
}

func (g *fakeGPU) countOp(op noc.Op) int {
	n := 0
	for _, p := range g.received {
		if p.Op == op {
			n++
		}
	}
	return n
}

type rig struct {
	eng  *sim.Engine
	sw   *Switch
	gpus []*fakeGPU
	// planeOf is the rig's group routing: a group routes to the plane it
	// maps to, unlisted groups to the rig's switch, plane 0.
	planeOf map[int]int
}

func newRig(t *testing.T, n int, capacity int64, timeout sim.Time) *rig {
	t.Helper()
	eng := sim.NewEngine()
	eng.SetStepLimit(1_000_000)
	r := &rig{eng: eng, gpus: make([]*fakeGPU, n), planeOf: map[int]int{}}
	sw := newSwitch(eng, testHW(n, capacity, timeout, 0), EvictLRU, func(group int) int { return r.planeOf[group] })
	r.sw = sw
	const bw, lat = 100e9, 250 * sim.Nanosecond
	for g := 0; g < n; g++ {
		gpu := &fakeGPU{id: g}
		gpu.up = noc.NewLink(eng, bw, lat, sw)
		sw.ConnectDown(g, noc.NewLink(eng, bw, lat, gpu))
		r.gpus[g] = gpu
	}
	return r
}

func (r *rig) send(from int, p *noc.Packet) {
	r.gpus[from].up.Send(p)
}

func TestLoadMergingFetchesOnceServesAll(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	tag := &loadTag{}
	r.eng.At(0, func() {
		for _, g := range []int{1, 2, 3} {
			r.send(g, &noc.Packet{
				Op: noc.OpLdCAIS, Addr: 0x100, Home: 0, Src: g,
				Size: 1024, Contribs: 3, Tag: tag,
			})
		}
	})
	r.eng.Run()
	if got := r.gpus[0].countOp(noc.OpLoad); got != 1 {
		t.Fatalf("home GPU saw %d fetches, want 1 (merged)", got)
	}
	for _, g := range []int{1, 2, 3} {
		if got := r.gpus[g].countOp(noc.OpLoadResp); got != 1 {
			t.Fatalf("gpu %d got %d responses, want 1", g, got)
		}
	}
	if tag.done != 3 {
		t.Fatalf("%d responses completed a load, want 3", tag.done)
	}
	st := r.sw.Summary()
	if st.LoadFetches != 1 || st.MergedLoads != 2 {
		t.Fatalf("stats fetches=%d merged=%d, want 1/2", st.LoadFetches, st.MergedLoads)
	}
	if len(r.sw.Port(0).sessions) != 0 {
		t.Fatal("session not released after all requesters served")
	}
	if r.sw.Port(0).used != 0 {
		t.Fatal("table occupancy not freed")
	}
}

func TestLoadMergingServesLateRequesterFromCache(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	r.eng.At(0, func() {
		r.send(1, &noc.Packet{Op: noc.OpLdCAIS, Addr: 0x200, Home: 0, Src: 1, Size: 512, Contribs: 3})
		r.send(2, &noc.Packet{Op: noc.OpLdCAIS, Addr: 0x200, Home: 0, Src: 2, Size: 512, Contribs: 3})
	})
	// Third requester arrives long after the fetch returned: it must be
	// served directly from the cached content array, not re-fetched.
	r.eng.At(50*sim.Microsecond, func() {
		r.send(3, &noc.Packet{Op: noc.OpLdCAIS, Addr: 0x200, Home: 0, Src: 3, Size: 512, Contribs: 3})
	})
	r.eng.Run()
	if got := r.gpus[0].countOp(noc.OpLoad); got != 1 {
		t.Fatalf("home saw %d fetches, want 1", got)
	}
	if got := r.gpus[3].countOp(noc.OpLoadResp); got != 1 {
		t.Fatal("late requester not served from cache")
	}
}

func TestReductionMergingSingleDownstreamWrite(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	done := 0
	r.eng.At(0, func() {
		for _, g := range []int{1, 2, 3} {
			r.send(g, &noc.Packet{
				Op: noc.OpRedCAIS, Addr: 0x300, Home: 0, Src: g,
				Size: 2048, Contribs: 3, OnDone: func() { done++ },
			})
		}
	})
	r.eng.Run()
	if got := r.gpus[0].countOp(noc.OpRedCAIS); got != 1 {
		t.Fatalf("home saw %d reduction writes, want 1 merged", got)
	}
	var result *noc.Packet
	for _, p := range r.gpus[0].received {
		if p.Op == noc.OpRedCAIS {
			result = p
		}
	}
	if result.Contribs != 3 {
		t.Fatalf("merged result folds %d contributions, want 3", result.Contribs)
	}
	if done != 3 {
		t.Fatalf("contributor OnDone fired %d, want 3", done)
	}
	st := r.sw.Summary()
	if st.CompletedReds != 1 || st.MergedReds != 3 {
		t.Fatalf("stats completed=%d merged=%d", st.CompletedReds, st.MergedReds)
	}
}

func TestReductionTimeoutFlushesPartial(t *testing.T) {
	r := newRig(t, 4, -1, 10*sim.Microsecond)
	r.eng.At(0, func() {
		r.send(1, &noc.Packet{Op: noc.OpRedCAIS, Addr: 0x400, Home: 0, Src: 1, Size: 256, Contribs: 3})
	})
	r.eng.Run()
	if got := r.gpus[0].countOp(noc.OpRedCAIS); got != 1 {
		t.Fatalf("home saw %d flushes, want 1", got)
	}
	p := r.gpus[0].received[len(r.gpus[0].received)-1]
	if p.Contribs != 1 {
		t.Fatalf("partial flush carries %d contribs, want 1", p.Contribs)
	}
	st := r.sw.Summary()
	if st.TimeoutEvictions != 1 || st.PartialFlushes != 1 {
		t.Fatalf("timeout=%d flushes=%d, want 1/1", st.TimeoutEvictions, st.PartialFlushes)
	}
	if r.sw.Port(0).used != 0 {
		t.Fatal("timed-out entry still occupies the table")
	}
}

func TestReductionTimeoutThenLateContributionsStillComplete(t *testing.T) {
	r := newRig(t, 4, -1, 10*sim.Microsecond)
	r.eng.At(0, func() {
		r.send(1, &noc.Packet{Op: noc.OpRedCAIS, Addr: 0x480, Home: 0, Src: 1, Size: 256, Contribs: 3})
	})
	// Arrive after the first entry timed out: a fresh session forms and
	// flushes on its own completion path; total folded contributions at
	// the home must still sum to 3.
	r.eng.At(30*sim.Microsecond, func() {
		r.send(2, &noc.Packet{Op: noc.OpRedCAIS, Addr: 0x480, Home: 0, Src: 2, Size: 256, Contribs: 3})
		r.send(3, &noc.Packet{Op: noc.OpRedCAIS, Addr: 0x480, Home: 0, Src: 3, Size: 256, Contribs: 3})
	})
	r.eng.Run()
	total := 0
	for _, p := range r.gpus[0].received {
		if p.Op == noc.OpRedCAIS {
			total += p.Contribs
		}
	}
	if total != 3 {
		t.Fatalf("home received %d total contributions, want 3", total)
	}
}

func TestCapacityPressureEvictsLRUReduction(t *testing.T) {
	// Capacity fits exactly one 1 KB session.
	r := newRig(t, 4, 1024, 0)
	r.eng.At(0, func() {
		r.send(1, &noc.Packet{Op: noc.OpRedCAIS, Addr: 0x500, Home: 0, Src: 1, Size: 1024, Contribs: 3})
	})
	r.eng.At(5*sim.Microsecond, func() {
		r.send(2, &noc.Packet{Op: noc.OpRedCAIS, Addr: 0x600, Home: 0, Src: 2, Size: 1024, Contribs: 3})
	})
	r.eng.Run()
	st := r.sw.Summary()
	if st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// The first session's partial (1 contribution) must have been flushed.
	found := false
	for _, p := range r.gpus[0].received {
		if p.Op == noc.OpRedCAIS && p.Addr == 0x500 && p.Contribs == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("evicted session did not flush its partial to the home GPU")
	}
}

func TestCapacityPressureBypassesWhenNothingEvictable(t *testing.T) {
	// Load-Wait entries hold only request metadata, but they are not
	// evictable: once pending entries fill the table, a new load to a
	// different address must bypass the merge unit. Capacity fits one
	// metadata entry.
	r := newRig(t, 4, 200, 0)
	bypassed := &loadTag{}
	r.eng.At(0, func() {
		r.send(1, &noc.Packet{Op: noc.OpLdCAIS, Addr: 0x700, Home: 0, Src: 1, Size: 1024, Contribs: 3})
		r.send(2, &noc.Packet{Op: noc.OpLdCAIS, Addr: 0x800, Home: 0, Src: 2, Size: 1024, Contribs: 3,
			Tag: bypassed})
	})
	r.eng.Run()
	st := r.sw.Summary()
	if st.BypassLoads != 1 {
		t.Fatalf("bypasses = %d, want 1", st.BypassLoads)
	}
	if bypassed.done != 1 {
		t.Fatal("bypassed load never completed")
	}
	// Home saw two fetches: the merged session's and the bypassed one.
	if fetches := r.gpus[0].countOp(noc.OpLoad); fetches != 2 {
		t.Fatalf("home fetches = %d, want 2", fetches)
	}
}

func TestHighWaterTracksPeakOccupancy(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	r.eng.At(0, func() {
		// Two concurrent 1 KB reduction sessions at the same port.
		r.send(1, &noc.Packet{Op: noc.OpRedCAIS, Addr: 0x900, Home: 0, Src: 1, Size: 1024, Contribs: 3})
		r.send(1, &noc.Packet{Op: noc.OpRedCAIS, Addr: 0xA00, Home: 0, Src: 1, Size: 1024, Contribs: 3})
	})
	r.eng.Run()
	if hwm := r.sw.Port(0).HighWater(); hwm != 2048 {
		t.Fatalf("high water = %d, want 2048", hwm)
	}
}

func TestMulticastStoreReplicatesToPeers(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	done := false
	r.eng.At(0, func() {
		r.send(0, &noc.Packet{Op: noc.OpMultimemST, Addr: 0xB00, Home: 0, Src: 0,
			Size: 4096, OnDone: func() { done = true }})
	})
	r.eng.Run()
	if r.gpus[0].countOp(noc.OpMultimemST) != 0 {
		t.Fatal("multicast echoed back to the sender")
	}
	for g := 1; g < 4; g++ {
		if r.gpus[g].countOp(noc.OpMultimemST) != 1 {
			t.Fatalf("gpu %d copies = %d, want 1", g, r.gpus[g].countOp(noc.OpMultimemST))
		}
	}
	if !done {
		t.Fatal("sender OnDone not fired")
	}
}

func TestPullReduceFansToAllAndReturnsOne(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	tag := &loadTag{}
	r.eng.At(0, func() {
		r.send(2, &noc.Packet{Op: noc.OpMultimemLdReduce, Addr: 0xC00, Home: 0, Src: 2,
			Size: 4096, Tag: tag})
	})
	r.eng.Run()
	for g := 0; g < 4; g++ {
		if r.gpus[g].countOp(noc.OpReadFan) != 1 {
			t.Fatalf("gpu %d fan reads = %d, want 1", g, r.gpus[g].countOp(noc.OpReadFan))
		}
	}
	if r.gpus[2].countOp(noc.OpLoadResp) != 1 {
		t.Fatal("requester did not get the reduced value")
	}
	resp := r.gpus[2].received[len(r.gpus[2].received)-1]
	if tag.done != 1 || resp.Tag != tag || resp.OnDone != nil {
		t.Fatal("requester completion not delivered through the load's tag alone")
	}
}

func TestPushReduceBroadcastsWhenDstNegative(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	r.eng.At(0, func() {
		for g := 0; g < 4; g++ {
			r.send(g, &noc.Packet{Op: noc.OpMultimemRed, Addr: 0xD00, Home: 0, Src: g,
				Dst: -1, Size: 4096, Contribs: 4})
		}
	})
	r.eng.Run()
	for g := 0; g < 4; g++ {
		if r.gpus[g].countOp(noc.OpMultimemRed) != 1 {
			t.Fatalf("gpu %d results = %d, want 1 (broadcast)", g, r.gpus[g].countOp(noc.OpMultimemRed))
		}
	}
	if r.sw.Summary().PushReduces != 1 {
		t.Fatalf("push reduce sessions = %d, want 1", r.sw.Summary().PushReduces)
	}
}

func TestPushReduceToHomeOnly(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	r.eng.At(0, func() {
		for g := 0; g < 4; g++ {
			r.send(g, &noc.Packet{Op: noc.OpMultimemRed, Addr: 0xE00, Home: 1, Src: g,
				Dst: 1, Size: 4096, Contribs: 4})
		}
	})
	r.eng.Run()
	for g := 0; g < 4; g++ {
		want := 0
		if g == 1 {
			want = 1
		}
		if r.gpus[g].countOp(noc.OpMultimemRed) != want {
			t.Fatalf("gpu %d results = %d, want %d", g, r.gpus[g].countOp(noc.OpMultimemRed), want)
		}
	}
}

func TestGroupSyncReleasesAllRegistrants(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	var releaseTimes []sim.Time
	for g := 0; g < 4; g++ {
		g := g
		// Stagger registrations; releases must come only after the last.
		r.eng.At(sim.Time(g)*sim.Microsecond, func() {
			r.send(g, &noc.Packet{Op: noc.OpSyncRequest, Addr: 7, Group: 42, Src: g, Contribs: 4})
		})
	}
	orig := make([]func(*noc.Packet), 4)
	_ = orig
	r.eng.Run()
	for g := 0; g < 4; g++ {
		n := r.gpus[g].countOp(noc.OpSyncRelease)
		if n != 1 {
			t.Fatalf("gpu %d releases = %d, want 1", g, n)
		}
	}
	_ = releaseTimes
	if r.sw.Summary().SyncReleases != 1 {
		t.Fatalf("sync releases = %d, want 1", r.sw.Summary().SyncReleases)
	}
}

func TestSkewStatsMeasureArrivalSpread(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	// Three requests to the same address, 10 us apart: skew = 20 us
	// measured at switch arrival. (Link+switch delay affects absolute
	// arrival, but the spread is preserved since paths are identical.)
	for i, g := range []int{1, 2, 3} {
		i, g := i, g
		r.eng.At(sim.Time(i)*10*sim.Microsecond, func() {
			r.send(g, &noc.Packet{Op: noc.OpLdCAIS, Addr: 0xF00, Home: 0, Src: g, Size: 128, Contribs: 3})
		})
	}
	r.eng.Run()
	st := r.sw.stats
	if st.SkewSamples() != 1 {
		t.Fatalf("skew samples = %d, want 1", st.SkewSamples())
	}
	if got := st.AvgSkew(); got != 20*sim.Microsecond {
		t.Fatalf("avg skew = %v, want 20us", got)
	}
}

func TestSummaryAddFoldsPlanes(t *testing.T) {
	a := Summary{MergedLoads: 3, SkewSum: 10 * sim.Microsecond, SkewCount: 2}
	b := Summary{MergedLoads: 4, SkewSum: 20 * sim.Microsecond, SkewCount: 1,
		SkewMax: 15 * sim.Microsecond}
	m := a.Add(b)
	if m.MergedLoads != 7 {
		t.Fatalf("merged loads = %d, want 7", m.MergedLoads)
	}
	if m.AvgSkew() != 10*sim.Microsecond {
		t.Fatalf("avg skew = %v, want 10us", m.AvgSkew())
	}
	if m.SkewMax != 15*sim.Microsecond {
		t.Fatalf("max skew = %v, want 15us", m.SkewMax)
	}
	// Add must not mutate its receiver (value semantics).
	if a.MergedLoads != 3 || a.SkewMax != 0 {
		t.Fatalf("Add mutated receiver: %+v", a)
	}
}

func TestSessionStateString(t *testing.T) {
	if LoadWait.String() != "Load-Wait" || LoadReady.String() != "Load-Ready" || Reduction.String() != "Reduction" {
		t.Fatal("state names wrong")
	}
}

func TestBroadcastReductionWritesEveryReplica(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	done := 0
	r.eng.At(0, func() {
		for g := 0; g < 4; g++ {
			r.send(g, &noc.Packet{
				Op: noc.OpRedCAIS, Addr: 0x1100, Home: 0, Src: g, Dst: -1,
				Size: 1024, Contribs: 4, OnDone: func() { done++ },
			})
		}
	})
	r.eng.Run()
	for g := 0; g < 4; g++ {
		if got := r.gpus[g].countOp(noc.OpRedCAIS); got != 1 {
			t.Fatalf("gpu %d reduced copies = %d, want 1 (broadcast)", g, got)
		}
	}
	if done != 4 {
		t.Fatalf("contributor completions = %d, want 4", done)
	}
	if r.sw.Port(0).used != 0 {
		t.Fatal("broadcast session not released")
	}
}

func TestBroadcastReductionTimeoutCompletesInPlace(t *testing.T) {
	// A partially-filled broadcast session cannot strand a partial at a
	// home replica: on timeout it broadcasts what it has.
	r := newRig(t, 4, -1, 10*sim.Microsecond)
	r.eng.At(0, func() {
		r.send(1, &noc.Packet{Op: noc.OpRedCAIS, Addr: 0x1200, Home: 0, Src: 1, Dst: -1,
			Size: 1024, Contribs: 4})
	})
	r.eng.Run()
	total := 0
	for g := 0; g < 4; g++ {
		total += r.gpus[g].countOp(noc.OpRedCAIS)
	}
	if total != 4 {
		t.Fatalf("timed-out broadcast delivered %d copies, want 4", total)
	}
	if r.sw.Port(0).used != 0 {
		t.Fatal("timed-out broadcast session leaked")
	}
}

func TestEvictionPolicies(t *testing.T) {
	// Three reduction sessions with distinct recency; a fourth allocation
	// forces one eviction. LRU must evict the stalest, MRU the freshest.
	for _, tc := range []struct {
		policy EvictionPolicy
		victim uint64
	}{
		{EvictLRU, 0x10}, {EvictMRU, 0x30}, {EvictFIFO, 0x10},
	} {
		eng := sim.NewEngine()
		hw := testHW(4, 3*1024, 0, 0)
		hw.SwitchLatency = 0
		sw := newSwitch(eng, hw, tc.policy, planeZero)
		var flushed []uint64
		gpu0 := noc.EndpointFunc(func(p *noc.Packet) {
			if p.Op == noc.OpRedCAIS {
				flushed = append(flushed, p.Addr)
			}
		})
		for g := 0; g < 4; g++ {
			dst := gpu0
			if g != 0 {
				dst = noc.EndpointFunc(func(*noc.Packet) {})
			}
			sw.ConnectDown(g, noc.NewLink(eng, 100e9, 0, dst))
		}
		up := noc.NewLink(eng, 100e9, 0, sw)
		eng.At(0, func() {
			up.Send(&noc.Packet{Op: noc.OpRedCAIS, Addr: 0x10, Home: 0, Src: 1, Size: 1024, Contribs: 3})
		})
		eng.At(sim.Microsecond, func() {
			up.Send(&noc.Packet{Op: noc.OpRedCAIS, Addr: 0x20, Home: 0, Src: 1, Size: 1024, Contribs: 3})
		})
		eng.At(2*sim.Microsecond, func() {
			up.Send(&noc.Packet{Op: noc.OpRedCAIS, Addr: 0x30, Home: 0, Src: 1, Size: 1024, Contribs: 3})
		})
		eng.At(3*sim.Microsecond, func() {
			up.Send(&noc.Packet{Op: noc.OpRedCAIS, Addr: 0x40, Home: 0, Src: 1, Size: 1024, Contribs: 3})
		})
		eng.Run()
		if len(flushed) == 0 || flushed[0] != tc.victim {
			t.Errorf("policy %v evicted %v, want %#x first", tc.policy, flushed, tc.victim)
		}
	}
}

// TestMergeDisabledBroadcastReductionReachesEveryReplica: a broadcast
// (GEMM-AR) contribution that bypasses accumulation, because the port's
// merge unit is off or because its table cannot make room, is replicated
// unmerged. Every replica receives it once, as one contribution carrying
// the issuing access, and only the home replica's copy completes the
// issuer.
func TestMergeDisabledBroadcastReductionReachesEveryReplica(t *testing.T) {
	cases := []struct {
		name     string
		capacity int64
		disabled bool
	}{
		{"merge unit disabled", -1, true},
		{"table too small", 512, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 4, c.capacity, 0)
			r.sw.Port(0).SetDisabled(c.disabled)
			access := &struct{ name string }{"contribution"}
			done := 0
			r.eng.At(0, func() {
				r.send(2, &noc.Packet{
					Op: noc.OpRedCAIS, Addr: 0x1300, Home: 0, Src: 2, Dst: -1,
					Size: 1024, Contribs: 4, Tag: access, OnDone: func() { done++ },
				})
			})
			r.eng.Run()
			for g := 0; g < 4; g++ {
				var copies []*noc.Packet
				for _, p := range r.gpus[g].received {
					if p.Op == noc.OpRedCAIS {
						copies = append(copies, p)
					}
				}
				if len(copies) != 1 {
					t.Fatalf("gpu %d received %d copies, want 1", g, len(copies))
				}
				p := copies[0]
				if p.Contribs != 1 || p.Size != 1024 || p.Tag != access {
					t.Fatalf("gpu %d copy: contribs=%d size=%d tag=%v, want one 1 KB contribution with the access",
						g, p.Contribs, p.Size, p.Tag)
				}
				if (p.OnDone != nil) != (g == 0) {
					t.Fatalf("gpu %d copy carries OnDone = %v; only the home copy completes the issuer", g, p.OnDone != nil)
				}
			}
			if done != 1 {
				t.Fatalf("issuer completed %d times, want 1", done)
			}
			if st := r.sw.Summary(); st.BypassReds != 1 || st.MergedReds != 0 {
				t.Fatalf("bypassed=%d merged=%d, want 1/0", st.BypassReds, st.MergedReds)
			}
		})
	}
}

// TestFailoverReturnsSyncEntriesToPool: once a failed plane's groups
// route to a survivor, DropRerouted returns their Group Sync Table entries
// to the pool, so every pooled object is idle. A registration still
// draining into the failed plane is dropped too (its wait re-registers on
// the survivor), and after Repair, with routing restored, the table
// accepts registrations again.
func TestFailoverReturnsSyncEntriesToPool(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	r.eng.At(0, func() {
		// Partial entries: one of four GPUs registers each group.
		for group := 0; group < 3; group++ {
			r.send(1, &noc.Packet{Op: noc.OpSyncRequest, Addr: 1, Group: group, Src: 1, Contribs: 4})
		}
		r.send(2, &noc.Packet{Op: noc.OpSyncRequest, Addr: 2, Group: 0, Src: 2, Contribs: 4})
	})
	r.eng.Run()
	if _, allocs, idle := r.sw.PoolStats(); allocs != 4 || idle != 0 {
		t.Fatalf("before failover: %d of %d pooled objects idle, want 0 of 4", idle, allocs)
	}
	r.sw.Failover()
	for group := 0; group < 3; group++ {
		r.planeOf[group] = 1
	}
	r.sw.DropRerouted()
	if _, allocs, idle := r.sw.PoolStats(); idle != allocs {
		t.Fatalf("after failover: %d of %d pooled objects idle", idle, allocs)
	}
	if n := r.sw.Summary().SyncDropped; n != 4 {
		t.Fatalf("sync entries dropped = %d, want 4", n)
	}

	r.eng.At(r.eng.Now(), func() {
		r.send(3, &noc.Packet{Op: noc.OpSyncRequest, Addr: 1, Group: 0, Src: 3, Contribs: 4})
	})
	r.eng.Run()
	if _, allocs, idle := r.sw.PoolStats(); idle != allocs {
		t.Fatalf("straggler after failover: %d of %d pooled objects idle", idle, allocs)
	}
	if n := r.sw.Summary().SyncDropped; n != 5 {
		t.Fatalf("sync entries and registrations dropped = %d, want 5", n)
	}

	r.sw.Repair()
	clear(r.planeOf)
	r.eng.At(r.eng.Now(), func() {
		for g := 0; g < 4; g++ {
			r.send(g, &noc.Packet{Op: noc.OpSyncRequest, Addr: 1, Group: 9, Src: g, Contribs: 4})
		}
	})
	r.eng.Run()
	if st := r.sw.Summary(); st.SyncReleases != 1 || st.SyncDropped != 5 {
		t.Fatalf("after repair: %d releases, %d dropped; want 1 and 5", st.SyncReleases, st.SyncDropped)
	}
	if _, allocs, idle := r.sw.PoolStats(); idle != allocs {
		t.Fatalf("after repair: %d of %d pooled objects idle", idle, allocs)
	}
}

// TestStandbyDropsMovedBackGroups: a standby plane serves a failed plane's
// group during the outage. When the repair routes the group back,
// DropRerouted drops the group's partial entry and keeps the entries of
// the standby's own groups, and a registration for the moved group that
// arrives late is dropped; the standby's own group still releases, and
// every pooled object ends idle.
func TestStandbyDropsMovedBackGroups(t *testing.T) {
	r := newRig(t, 4, -1, 0)
	const moved, own = 1, 4 // group 1 lives on plane 1; the rig's switch stands in
	r.eng.At(0, func() {
		r.send(1, &noc.Packet{Op: noc.OpSyncRequest, Addr: 1, Group: moved, Src: 1, Contribs: 4})
		r.send(2, &noc.Packet{Op: noc.OpSyncRequest, Addr: 1, Group: moved, Src: 2, Contribs: 4})
		r.send(1, &noc.Packet{Op: noc.OpSyncRequest, Addr: 1, Group: own, Src: 1, Contribs: 4})
	})
	r.eng.Run()
	if _, allocs, idle := r.sw.PoolStats(); allocs != 2 || idle != 0 {
		t.Fatalf("during the outage: %d of %d pooled objects idle, want 0 of 2", idle, allocs)
	}

	r.planeOf[moved] = 1 // plane 1 repaired
	r.sw.DropRerouted()
	if _, allocs, idle := r.sw.PoolStats(); allocs != 2 || idle != 1 {
		t.Fatalf("after the repair: %d of %d pooled objects idle, want 1 of 2", idle, allocs)
	}
	r.eng.At(r.eng.Now(), func() {
		r.send(3, &noc.Packet{Op: noc.OpSyncRequest, Addr: 1, Group: moved, Src: 3, Contribs: 4})
		for _, g := range []int{0, 2, 3} {
			r.send(g, &noc.Packet{Op: noc.OpSyncRequest, Addr: 1, Group: own, Src: g, Contribs: 4})
		}
	})
	r.eng.Run()
	if st := r.sw.Summary(); st.SyncDropped != 2 || st.SyncReleases != 1 {
		t.Fatalf("%d dropped, %d releases; want 2 (the moved entry and the late registration) and 1", st.SyncDropped, st.SyncReleases)
	}
	for g, gpu := range r.gpus {
		if n := gpu.countOp(noc.OpSyncRelease); n != 1 {
			t.Fatalf("gpu %d received %d releases, want 1 (group %d's)", g, n, own)
		}
	}
	if _, allocs, idle := r.sw.PoolStats(); idle != allocs {
		t.Fatalf("at the end: %d of %d pooled objects idle", idle, allocs)
	}
}
