// Engine hot-path microbenchmarks. The event queue is the simulator's
// innermost loop — every simulated request, kernel phase and sync crossing
// is one push/pop pair — so these benchmarks pin the two properties the
// concrete 4-ary heap and the delay lanes were built for: low ns/event and
// zero steady-state allocations per scheduled event.
//
// BenchmarkEngineHoldBoxedHeap keeps the old container/heap implementation
// alive (test-only) as the comparison baseline: run
//
//	go test -run='^$' -bench='BenchmarkEngineHold' -benchmem ./internal/sim/
//
// to see the specialized heap against the interface-boxed one on the same
// hold workload.
package sim

import (
	"container/heap"
	"testing"
)

// nop is the scheduled body for queue-focused benchmarks: the work under
// measurement is the heap, not the event.
func nop() {}

// BenchmarkEngineSchedule measures a bare At push into a warm engine
// (events accumulate; the heap grows geometrically but is never drained).
func BenchmarkEngineSchedule(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.At(Time(i), nop)
	}
}

// hold is the classic hold model on the real engine: a pending set of
// depth events where each executed event schedules one successor while
// budget remains, so the queue depth stays constant and every iteration
// is exactly one pop plus one push at steady state. Successor k, counted
// up from zero, waits 64-k%64: the delays descend from 64 to 1 and repeat
// whatever the budget, so the lanes reach the same state after the same
// number of events at any b.N. The seam between the ascending seed delays
// and the first descending run leaves 15 lanes holding a delay.
type hold struct {
	e      *Engine
	n      int // successors scheduled so far
	budget int
	arm    func()
}

func newHold(depth, budget int) *hold {
	h := &hold{e: NewEngine(), budget: budget}
	h.arm = func() {
		if h.n < h.budget {
			d := Time(64 - h.n%64)
			h.n++
			h.e.After(d, h.arm)
		}
	}
	for i := 0; i < depth; i++ {
		h.e.At(Time(i%64), h.arm)
	}
	return h
}

func benchHold(b *testing.B, depth int) {
	h := newHold(depth, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	h.e.Run()
}

// TestHoldLaneStateIndependentOfBudget: BenchmarkEngineHold* measure one
// queue at any b.N. Two budgets 32 apart leave the lanes in the same
// state after the same number of events.
func TestHoldLaneStateIndependentOfBudget(t *testing.T) {
	type laneState struct {
		d, miss [1 << laneBits]Time
		live    uint16
		heap    int
	}
	const depth, at = 64, 20_000
	state := func(budget int) laneState {
		h := newHold(depth, budget)
		var st laneState
		h.e.SetProgress(at, func(_ Time, steps uint64) {
			if steps != at {
				return
			}
			for i := range h.e.lanes {
				st.d[i], st.miss[i] = h.e.lanes[i].d, h.e.lanes[i].miss
			}
			st.live, st.heap = h.e.live, h.e.heap.len()
		})
		h.e.Run()
		return st
	}
	a, b := state(30_000), state(30_032)
	if a != b {
		t.Fatalf("lane state after %d events differs between budgets:\n%+v\n%+v", at, a, b)
	}
	if a.live == 0 {
		t.Fatal("no lane holds events: the hold measures the heap alone")
	}
}

func BenchmarkEngineHold64(b *testing.B)   { benchHold(b, 64) }
func BenchmarkEngineHold1024(b *testing.B) { benchHold(b, 1024) }
func BenchmarkEngineHold8192(b *testing.B) { benchHold(b, 8192) }

// layerHotDelays is a cyclic table of delays drawn from the push mix
// measured on one LLaMA-7B layer under CAIS (8 GPUs, 32 KB requests): 250 ns
// link latency 29%, 316 ps and 647,585 ps serializations 18% and 9%, 50 ns
// switch latency 14%, 300 ns TB overhead 6%, 9,781 ps 4%, zero 4%, the
// 8 us merge timeout 3%, and 13% one-off compute and HBM delays.
var layerHotDelays = func() []Time {
	mix := []struct {
		d   Time
		pct int
	}{
		{250 * Nanosecond, 29}, {316, 18}, {647_585, 9}, {50 * Nanosecond, 14},
		{300 * Nanosecond, 6}, {9_781, 4}, {0, 4}, {8 * Microsecond, 3},
	}
	rng := NewRNG(0x1a7e)
	table := make([]Time, 4096)
	for i := range table {
		table[i] = rng.Between(100*Nanosecond, 10*Microsecond) // one-off
		k := rng.Intn(100)
		for _, m := range mix {
			if k < m.pct {
				table[i] = m.d
				break
			}
			k -= m.pct
		}
	}
	return table
}()

// mixedHold is the hold model over layerHotDelays: every executed event
// schedules one successor at the table's next delay while budget remains.
type mixedHold struct {
	e      *Engine
	next   int
	budget int
	arm    func()
}

func newMixedHold() *mixedHold {
	h := &mixedHold{e: NewEngine()}
	h.arm = func() {
		if h.budget > 0 {
			h.budget--
			h.schedule()
		}
	}
	return h
}

func (h *mixedHold) schedule() {
	h.e.After(layerHotDelays[h.next%len(layerHotDelays)], h.arm)
	h.next++
}

// fill seeds depth pending events and sets the budget of successors.
func (h *mixedHold) fill(depth, budget int) {
	for i := 0; i < depth; i++ {
		h.schedule()
	}
	h.budget = budget
}

// mixedHoldDepth is about the pending-event count of layer-hot's CAIS run.
const mixedHoldDepth = 2000

// BenchmarkEngineMixedDelays replays layer-hot's push mix at about 2,000
// pending events: one pop plus one push per op. Most delays recur, so most
// events pass through the delay lanes instead of the heap.
func BenchmarkEngineMixedDelays(b *testing.B) {
	h := newMixedHold()
	h.fill(mixedHoldDepth, b.N)
	b.ReportAllocs()
	b.ResetTimer()
	h.e.Run()
}

// boxedHeap is the pre-overhaul event queue: container/heap over a slice
// of events, paying one interface box per Push and one unbox per Pop. It
// lives only in this benchmark file as the comparison baseline.
type boxedHeap []event

func (h boxedHeap) Len() int { return len(h) }
func (h boxedHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h boxedHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *boxedHeap) Push(x interface{}) { *h = append(*h, x.(event)) }
func (h *boxedHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = event{}
	*h = old[:n-1]
	return e
}

// BenchmarkEngineHoldBoxedHeap is the same hold workload as
// BenchmarkEngineHold1024 run against the old container/heap queue.
func BenchmarkEngineHoldBoxedHeap(b *testing.B) {
	const depth = 1024
	var h boxedHeap
	var seq uint64
	push := func(at Time) {
		seq++
		heap.Push(&h, event{at: at, seq: seq, fn: nop})
	}
	for i := 0; i < depth; i++ {
		push(Time(i % 64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := heap.Pop(&h).(event)
		push(ev.at + Time(1+i%64))
	}
}

// BenchmarkEngineHoldConcreteHeap is the queue-only counterpart of
// BenchmarkEngineHoldBoxedHeap: the same pop+push cycle directly against
// the 4-ary heap, isolating the queue from engine bookkeeping.
func BenchmarkEngineHoldConcreteHeap(b *testing.B) {
	const depth = 1024
	var h eventHeap
	var seq uint64
	push := func(at Time) {
		seq++
		h.push(event{at: at, seq: seq, fn: nop})
	}
	for i := 0; i < depth; i++ {
		push(Time(i % 64))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev := h.pop()
		push(ev.at + Time(1+i%64))
	}
}

// TestEngineSteadyStateAllocs proves the hot path allocates nothing per
// event once the heap is warm: scheduling into and draining a warmed
// engine must cost zero allocations per push/pop pair.
func TestEngineSteadyStateAllocs(t *testing.T) {
	e := NewEngine()
	// Warm the queue past the initial capacity so growth is behind us.
	for i := 0; i < 2*initialHeapCap; i++ {
		e.At(Time(i), nop)
	}
	e.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		e.At(e.Now()+1, nop)
		e.Run()
	})
	if allocs != 0 {
		t.Errorf("steady-state schedule+run allocates %.1f times per event, want 0", allocs)
	}
}

// TestEngineMixedDelaysAllocs pins BenchmarkEngineMixedDelays' workload at
// zero allocations once the heap and the lanes' rings have grown.
func TestEngineMixedDelaysAllocs(t *testing.T) {
	h := newMixedHold()
	// AllocsPerRun's warm-up call grows the heap and the rings.
	allocs := testing.AllocsPerRun(5, func() {
		h.fill(mixedHoldDepth, 20_000)
		h.e.Run()
	})
	if allocs != 0 {
		t.Errorf("warmed mixed-delay hold allocates %.1f times per 22,000 events, want 0", allocs)
	}
}

// TestEventHeapPushAllocsAmortized checks the geometric-growth contract of
// the queue itself: pushing n events from scratch performs O(log n)
// allocations (the doubling ladder), far below one per event.
func TestEventHeapPushAllocsAmortized(t *testing.T) {
	const n = 100_000
	var h *eventHeap
	allocs := testing.AllocsPerRun(1, func() {
		h = &eventHeap{}
		for i := 0; i < n; i++ {
			h.push(event{at: Time(i), seq: uint64(i), fn: nop})
		}
	})
	// log2(100k/512) ≈ 8 doublings plus the heap struct itself; 16 leaves
	// headroom without letting per-event allocation regressions hide.
	if allocs > 16 {
		t.Errorf("pushing %d events allocated %.0f times; geometric growth should need <= 16", n, allocs)
	}
	if h.len() != n {
		t.Fatalf("heap lost events: len=%d want %d", h.len(), n)
	}
}

// latchPoolCycle returns a warmed pooled-latch cycle: Get, the cached Done
// method value, and the fire that recycles the latch back into the pool
// before its callback runs. At steady state the same latch object
// round-trips forever.
func latchPoolCycle() func() {
	var lp LatchPool
	cb := func() {}
	cycle := func() {
		l := lp.Get(2, cb)
		done := l.DoneFunc()
		done()
		done()
	}
	for i := 0; i < 64; i++ {
		cycle() // warm: the pool settles on one latch with a cached doneFn
	}
	return cycle
}

// BenchmarkLatchPool measures a full pooled-latch cycle at zero
// allocations per cycle.
func BenchmarkLatchPool(b *testing.B) {
	cycle := latchPoolCycle()
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		b.Fatalf("warmed latch cycle allocates %.2f/op, want 0", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestLatchPoolCycleAllocatesNothing runs BenchmarkLatchPool's warmed
// cycle, so the 0 allocs/op pin holds in every test run.
func TestLatchPoolCycleAllocatesNothing(t *testing.T) {
	if got := testing.AllocsPerRun(100, latchPoolCycle()); got != 0 {
		t.Fatalf("warmed latch cycle allocates %.2f/op, want 0", got)
	}
}
