package pool

import "testing"

type thing struct {
	a      int
	b      []int
	resets int // survives Reset: counts calls for the Put test
}

func (t *thing) Reset() { t.a = 0; t.b = t.b[:0]; t.resets++ }

func TestGetPutRecycles(t *testing.T) {
	var p Pool[thing, *thing]
	x := p.Get()
	x.a = 7
	x.b = append(x.b, 1, 2, 3)
	p.Put(x)
	y := p.Get()
	if y != x {
		t.Fatalf("Get after Put returned a fresh object, want the recycled one")
	}
	if y.a != 0 || len(y.b) != 0 {
		t.Fatalf("recycled object not reset: %+v", y)
	}
	if cap(y.b) < 3 {
		t.Fatalf("reset dropped backing array: cap=%d", cap(y.b))
	}
}

func TestPutResetsOnce(t *testing.T) {
	var p Pool[thing, *thing]
	x := p.Get()
	if x.resets != 0 {
		t.Fatalf("Get of a fresh object ran Reset %d times", x.resets)
	}
	p.Put(x)
	if x.resets != 1 {
		t.Fatalf("Put ran Reset %d times, want 1", x.resets)
	}
	if p.Get(); x.resets != 1 {
		t.Fatalf("Get of a recycled object ran Reset again (%d calls)", x.resets)
	}
}

func TestGetOrderLIFO(t *testing.T) {
	var p Pool[thing, *thing]
	a, b := p.Get(), p.Get()
	p.Put(a)
	p.Put(b)
	if got := p.Get(); got != b {
		t.Fatalf("pool is not LIFO: got %p want %p", got, b)
	}
	if got := p.Get(); got != a {
		t.Fatalf("pool is not LIFO on second Get")
	}
}

func TestPutNilIgnored(t *testing.T) {
	var p Pool[thing, *thing]
	p.Put(nil)
	if x := p.Get(); x == nil {
		t.Fatalf("Get returned nil after Put(nil)")
	}
}

func TestStats(t *testing.T) {
	var p Pool[thing, *thing]
	p.Put(p.Get())
	p.Get()
	gets, news, idle := p.Stats()
	if gets != 2 || news != 1 || idle != 0 {
		t.Fatalf("Stats() = (%d,%d,%d), want (2,1,0)", gets, news, idle)
	}
}

func TestSteadyStateZeroAlloc(t *testing.T) {
	var p Pool[thing, *thing]
	// Warm the free list so append in Put never grows.
	warm := make([]*thing, 8)
	for i := range warm {
		warm[i] = p.Get()
	}
	for _, x := range warm {
		p.Put(x)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.Put(p.Get())
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %v allocs/op, want 0", allocs)
	}
}
