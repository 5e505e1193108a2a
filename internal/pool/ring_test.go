package pool

import "testing"

func TestRingDequeOrder(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 5; i++ {
		r.PushBack(i)
	}
	r.PushFront(-1)
	want := []int{-1, 0, 1, 2, 3, 4}
	for _, w := range want {
		if got := r.PopFront(); got != w {
			t.Fatalf("PopFront = %d, want %d", got, w)
		}
	}
	if r.Len() != 0 {
		t.Fatalf("Len = %d after drain, want 0", r.Len())
	}
}

func TestRingWrapAndGrow(t *testing.T) {
	var r Ring[int]
	next := 0
	for i := 0; i < 200; i++ {
		r.PushBack(i)
		if i%3 == 0 {
			if got := r.PopFront(); got != next {
				t.Fatalf("PopFront = %d, want %d", got, next)
			}
			next++
		}
	}
	for r.Len() > 0 {
		if got := r.PopFront(); got != next {
			t.Fatalf("drain PopFront = %d, want %d", got, next)
		}
		next++
	}
	if next != 200 {
		t.Fatalf("drained %d, want 200", next)
	}
}

func TestRingPopClearsPointerSlot(t *testing.T) {
	var r Ring[*int]
	x := new(int)
	r.PushBack(x)
	r.PopFront()
	for i, p := range r.buf {
		if p != nil {
			t.Fatalf("slot %d still set after PopFront", i)
		}
	}
}

func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("PopFront on empty ring did not panic")
		}
	}()
	var r Ring[int]
	r.PopFront()
}

func TestRingSteadyStateZeroAlloc(t *testing.T) {
	var r Ring[int]
	for i := 0; i < 8; i++ {
		r.PushBack(i)
	}
	for r.Len() > 0 {
		r.PopFront()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 8; i++ {
			r.PushBack(i)
		}
		for r.Len() > 0 {
			r.PopFront()
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state ring churn allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkRingEnqueueDequeue measures the queue churn of a NoC link's
// Send/pop: bursts of enqueues drained in FIFO order, reusing the backing
// array (0 allocs/op at steady state).
func BenchmarkRingEnqueueDequeue(b *testing.B) {
	var r Ring[*int]
	p := new(int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			r.PushBack(p)
		}
		for j := 0; j < 16; j++ {
			r.PopFront()
		}
	}
}

// BenchmarkSliceEnqueueDequeue is the append/reslice queue idiom the ring
// replaced, kept as the comparison baseline for BenchmarkRingEnqueueDequeue.
func BenchmarkSliceEnqueueDequeue(b *testing.B) {
	var q []*int
	p := new(int)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 16; j++ {
			q = append(q, p)
		}
		for j := 0; j < 16; j++ {
			q = q[1:]
		}
		q = nil
	}
}
