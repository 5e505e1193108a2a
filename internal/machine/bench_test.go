// Dependency-tracker hot-path microbenchmark. Every TB of every kernel
// registers its input tiles and is woken by publishes — tens of millions
// of cycles per sweep point — so the pooled dependency records, the waiter
// arrays that stay in their tile slots, and pooled TB run slots must make
// the full cycle allocation-free at steady state. The benchmark pins that
// in addition to timing it, and TestRegisterTBCycleAllocatesNothing pins
// it in every test run.
package machine

import (
	"testing"

	"cais/internal/gpu"
	"cais/internal/kernel"
	"cais/internal/sim"
)

// registerTBCycle returns one full dependency cycle, warmed: register a
// TB against two unready tiles, publish both (waking and admitting the
// TB), and drain the engine so the no-op TB retires and its run slot
// recycles. The cycle then marks both slots unready again, so the next
// registration appends into the waiter arrays the slots kept.
func registerTBCycle(tb testing.TB) func() {
	tb.Helper()
	eng := sim.NewEngine()
	m := New(eng, testHW(), Options{})
	// A huge grid of no-op TBs: each iteration consumes one fresh TB index
	// (MarkEligible is exactly-once per TB) and the launch never completes.
	k := &kernel.Kernel{
		Name: "bench", Kind: kernel.KindGEMM, Grid: 1 << 30,
		Work: func(g, tb int) kernel.TBDesc { return kernel.TBDesc{Group: -1} },
	}
	var l *gpu.Launch
	eng.At(0, func() { l = m.GPUs[0].Launch(k, 1, 0, nil) })
	eng.Run() // past the launch start: eligibility now admits instead of buffering
	buf := m.NewBuffer(2)
	in := []kernel.Tile{{Buf: buf, Idx: 0}, {Buf: buf, Idx: 1}}
	nextTB := 0
	cycle := func() {
		m.registerTB(l, nextTB, in)
		nextTB++
		m.PublishTiles(in)
		eng.Run() // retire the admitted no-op TB, recycling its run slot
		m.slot(in[0]).ready = false
		m.slot(in[1]).ready = false
	}
	for i := 0; i < 64; i++ {
		cycle() // warm the pools, waiter arrays, and event heap
	}
	return cycle
}

func BenchmarkRegisterTB(b *testing.B) {
	cycle := registerTBCycle(b)
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		b.Fatalf("warmed dependency cycle allocates %.2f/op, want 0", got)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// TestRegisterTBCycleAllocatesNothing runs BenchmarkRegisterTB's warmed
// cycle, so the 0 allocs/op pin holds in every test run.
func TestRegisterTBCycleAllocatesNothing(t *testing.T) {
	cycle := registerTBCycle(t)
	if got := testing.AllocsPerRun(100, cycle); got != 0 {
		t.Fatalf("warmed dependency cycle allocates %.2f/op, want 0", got)
	}
}
