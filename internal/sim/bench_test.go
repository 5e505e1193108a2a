// Engine hot-path microbenchmarks. The event queue is the simulator's
// innermost loop — every simulated request, kernel phase and sync crossing
// is one push/pop pair — so these benchmarks pin the two properties the
// concrete 4-ary heap was built for: low ns/event and zero steady-state
// allocations per scheduled event.
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

// benchHold runs the classic hold model on the real engine: a pending set
// of `depth` events where each executed event schedules one successor, so
// the queue depth stays constant and every iteration is exactly one pop
// plus one push at steady state.
func benchHold(b *testing.B, depth int) {
	e := NewEngine()
	remaining := b.N
	// Self-rescheduling closure: each event re-arms itself while budget
	// remains, keeping the pending set at `depth`.
	var arm func()
	arm = func() {
		if remaining > 0 {
			remaining--
			e.After(Time(1+remaining%64), arm)
		}
	}
	for i := 0; i < depth; i++ {
		e.At(Time(i%64), arm)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkEngineHold64(b *testing.B)   { benchHold(b, 64) }
func BenchmarkEngineHold1024(b *testing.B) { benchHold(b, 1024) }
func BenchmarkEngineHold8192(b *testing.B) { benchHold(b, 8192) }

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
