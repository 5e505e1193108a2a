package sim

import (
	"testing"
	"testing/quick"
)

func TestEngineRunsEventsInTimeOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30*Nanosecond, func() { order = append(order, 3) })
	e.At(10*Nanosecond, func() { order = append(order, 1) })
	e.At(20*Nanosecond, func() { order = append(order, 2) })
	end := e.Run()
	if end != 30*Nanosecond {
		t.Fatalf("end time = %v, want 30ns", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEngineSameTimeEventsRunInScheduleOrder(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5*Nanosecond, func() { order = append(order, i) })
	}
	e.Run()
	for i := 0; i < 10; i++ {
		if order[i] != i {
			t.Fatalf("tie-break order = %v", order)
		}
	}
}

func TestEngineAfterSchedulesRelative(t *testing.T) {
	e := NewEngine()
	var hit Time = -1
	e.At(100*Nanosecond, func() {
		e.After(50*Nanosecond, func() { hit = e.Now() })
	})
	e.Run()
	if hit != 150*Nanosecond {
		t.Fatalf("After fired at %v, want 150ns", hit)
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100*Nanosecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(50*Nanosecond, func() {})
	})
	e.Run()
}

func TestEngineStepLimitPanics(t *testing.T) {
	e := NewEngine()
	e.SetStepLimit(5)
	var loop func()
	loop = func() { e.After(Nanosecond, loop) }
	e.At(0, loop)
	defer func() {
		if recover() == nil {
			t.Error("step limit did not panic")
		}
	}()
	e.Run()
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{0, "0s"},
		{500 * Picosecond, "500ps"},
		{3 * Nanosecond, "3.00ns"},
		{2 * Microsecond, "2.000us"},
		{350 * Microsecond, "350.00us"},
		{4 * Millisecond, "4.000ms"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestDurationForBytes(t *testing.T) {
	// 450 GB/s, 4500 bytes -> 10ns.
	d := DurationForBytes(4500, 450e9)
	if d != 10*Nanosecond {
		t.Fatalf("DurationForBytes = %v, want 10ns", d)
	}
	if DurationForBytes(0, 450e9) != 0 {
		t.Fatal("zero bytes should take zero time")
	}
	if DurationForBytes(1, 1e15) < 1 {
		t.Fatal("nonzero transfer must take at least 1ps")
	}
}

func TestResourceSerializesReservations(t *testing.T) {
	r := NewResource()
	s1, e1 := r.Reserve(0, 10*Nanosecond)
	if s1 != 0 || e1 != 10*Nanosecond {
		t.Fatalf("first reservation (%v,%v)", s1, e1)
	}
	// Second request at t=5ns queues behind the first.
	s2, e2 := r.Reserve(5*Nanosecond, 10*Nanosecond)
	if s2 != 10*Nanosecond || e2 != 20*Nanosecond {
		t.Fatalf("second reservation (%v,%v), want (10ns,20ns)", s2, e2)
	}
	// A request after the resource is idle starts immediately.
	s3, _ := r.Reserve(100*Nanosecond, Nanosecond)
	if s3 != 100*Nanosecond {
		t.Fatalf("idle-start reservation at %v, want 100ns", s3)
	}
}

func TestResourceReservationsNeverOverlap(t *testing.T) {
	// Property: for any request sequence, granted intervals are disjoint
	// and ordered.
	f := func(durs []uint16, gaps []uint16) bool {
		r := NewResource()
		now := Time(0)
		lastEnd := Time(0)
		for i, d := range durs {
			if i < len(gaps) {
				now += Time(gaps[i])
			}
			s, e := r.Reserve(now, Time(d))
			if s < now || s < lastEnd || e != s+Time(d) {
				return false
			}
			lastEnd = e
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLatchFiresOnceAtZero(t *testing.T) {
	var lp LatchPool
	fired := 0
	l := lp.Get(3, func() { fired++ })
	l.Done()
	l.Done()
	if fired != 0 {
		t.Fatal("latch fired early")
	}
	l.Done()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
}

func TestLatchDoubleDonePanics(t *testing.T) {
	var lp LatchPool
	l := lp.Get(1, nil)
	l.Done()
	defer func() {
		if recover() == nil {
			t.Error("Done on released latch did not panic")
		}
	}()
	l.Done()
}

func TestLatchPoolRecyclesOnFire(t *testing.T) {
	var lp LatchPool
	fired := 0
	l := lp.Get(2, func() { fired++ })
	done := l.DoneFunc()
	done()
	if fired != 0 {
		t.Fatal("latch fired early")
	}
	done()
	if fired != 1 {
		t.Fatalf("fired = %d, want 1", fired)
	}
	// The fired latch must already be back in the pool: the next Get
	// returns the same object with fresh state.
	l2 := lp.Get(1, nil)
	if l2 != l {
		t.Fatal("fired latch was not recycled")
	}
	if l2.remaining != 1 {
		t.Fatalf("recycled latch remaining = %d, want 1", l2.remaining)
	}
	l2.Done()
	if gets, news, idle := lp.Stats(); gets != 2 || news != 1 || idle != 1 {
		t.Fatalf("Stats = (%d, %d, %d), want (2, 1, 1)", gets, news, idle)
	}
}

func TestLatchPoolRecyclesBeforeCallback(t *testing.T) {
	// A completion callback may immediately Get a follow-up latch from the
	// same pool — the machine launches the next kernel batch from exactly
	// this position. The fired latch must already be available for reuse.
	var lp LatchPool
	var inner *Latch
	outer := lp.Get(1, func() { inner = lp.Get(1, nil) })
	outer.Done()
	if inner != outer {
		t.Fatal("callback Get did not reuse the just-fired latch")
	}
	inner.Done()
}

func TestLatchPoolGetZeroPanics(t *testing.T) {
	var lp LatchPool
	defer func() {
		if recover() == nil {
			t.Error("Get(0) did not panic")
		}
	}()
	lp.Get(0, nil)
}

func TestLatchPoolSteadyStateAllocs(t *testing.T) {
	var lp LatchPool
	l := lp.Get(1, nil)
	l.DoneFunc()()
	allocs := testing.AllocsPerRun(100, func() {
		l := lp.Get(2, nil)
		done := l.DoneFunc()
		done()
		done()
	})
	if allocs != 0 {
		t.Fatalf("steady-state latch cycle allocates %.1f/op, want 0", allocs)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGBetween(t *testing.T) {
	r := NewRNG(9)
	lo, hi := 10*Nanosecond, 20*Nanosecond
	for i := 0; i < 1000; i++ {
		v := r.Between(lo, hi)
		if v < lo || v > hi {
			t.Fatalf("Between out of range: %v", v)
		}
	}
	if r.Between(hi, lo) != hi {
		t.Fatal("inverted range should return lo")
	}
}

func TestRNGJitterRange(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		j := r.Jitter(0.1)
		if j < 0.9 || j > 1.1 {
			t.Fatalf("Jitter out of range: %v", j)
		}
	}
	if r.Jitter(0) != 1 {
		t.Fatal("zero-frac jitter must be exactly 1")
	}
}

func TestHash64Distinct(t *testing.T) {
	seen := map[uint64]bool{}
	for g := uint64(0); g < 8; g++ {
		for k := uint64(0); k < 64; k++ {
			h := Hash64(g, k)
			if seen[h] {
				t.Fatalf("Hash64 collision at (%d,%d)", g, k)
			}
			seen[h] = true
		}
	}
	if Hash64(1, 2) == Hash64(2, 1) {
		t.Fatal("Hash64 should be order-sensitive")
	}
}

func TestRNGIntnUniformish(t *testing.T) {
	r := NewRNG(123)
	counts := make([]int, 8)
	const n = 80000
	for i := 0; i < n; i++ {
		counts[r.Intn(8)]++
	}
	for b, c := range counts {
		frac := float64(c) / n
		if frac < 0.10 || frac > 0.15 {
			t.Fatalf("bucket %d frac %v far from 0.125", b, frac)
		}
	}
}
