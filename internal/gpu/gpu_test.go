package gpu

import (
	"testing"
	"testing/quick"

	"cais/internal/config"
	"cais/internal/kernel"
	"cais/internal/noc"
	"cais/internal/sim"
)

func TestChunkSizes(t *testing.T) {
	cases := []struct {
		n, chunk int64
		want     []int64
	}{
		{0, 8192, []int64{0}},
		{100, 8192, []int64{100}},
		{8192, 8192, []int64{8192}},
		{8193, 8192, []int64{8192, 1}},
		{3 * 8192, 8192, []int64{8192, 8192, 8192}},
		{100, 0, []int64{100}}, // zero chunk = single request
	}
	for _, c := range cases {
		got := chunkSizes(c.n, c.chunk)
		if len(got) != len(c.want) {
			t.Fatalf("chunkSizes(%d,%d) = %v, want %v", c.n, c.chunk, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("chunkSizes(%d,%d) = %v, want %v", c.n, c.chunk, got, c.want)
			}
		}
	}
}

func TestChunkSizesConserveBytes(t *testing.T) {
	f := func(n32 uint32, chunk uint16) bool {
		// Bound the chunk count so the property check stays fast.
		n := n32 % (1 << 20)
		cs := chunkSizes(int64(n), int64(chunk)+64)
		hw := config.Hardware{RequestBytes: int64(chunk) + 64}
		if hw.RequestChunks(int64(n)) != len(cs) {
			return false
		}
		var sum int64
		for i, c := range cs {
			if chunkSize(i, int64(n), int64(chunk)+64) != c {
				return false
			}
			sum += c
		}
		if n == 0 {
			return sum == 0 && len(cs) == 1
		}
		return sum == int64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestThrottleWindowFIFO(t *testing.T) {
	th := newThrottle(100)
	var order []int
	th.Acquire(60, func() { order = append(order, 1) })
	th.Acquire(60, func() { order = append(order, 2) }) // exceeds window, defers
	th.Acquire(10, func() { order = append(order, 3) }) // must stay behind 2
	if len(order) != 1 || order[0] != 1 {
		t.Fatalf("initial grants = %v, want [1]", order)
	}
	th.Release(60)
	if len(order) != 3 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("post-release order = %v, want [1 2 3]", order)
	}
	if th.out != 70 {
		t.Fatalf("outstanding = %d, want 70", th.out)
	}
}

func TestThrottleOversizeNeverStarves(t *testing.T) {
	th := newThrottle(100)
	granted := false
	th.Acquire(500, func() { granted = true }) // larger than the window
	if !granted {
		t.Fatal("oversize request starved on an idle window")
	}
}

func TestThrottleReleaseUnderflowPanics(t *testing.T) {
	th := newThrottle(100)
	defer func() {
		if recover() == nil {
			t.Fatal("window underflow did not panic")
		}
	}()
	th.Release(1)
}

func TestThrottleDisabledPassesThrough(t *testing.T) {
	th := newThrottle(0)
	n := 0
	for i := 0; i < 10; i++ {
		th.Acquire(1<<30, func() { n++ })
	}
	if n != 10 {
		t.Fatalf("grants = %d, want 10 with throttling disabled", n)
	}
}

func TestIsNoop(t *testing.T) {
	if !isNoop(kernel.TBDesc{}) {
		t.Fatal("empty desc should be noop")
	}
	if !isNoop(kernel.TBDesc{In: []kernel.Tile{{Buf: 1}}, Out: []kernel.Tile{{Buf: 2}}}) {
		t.Fatal("pure dependency/publish TBs are noop (no SM work)")
	}
	if isNoop(kernel.TBDesc{Flops: 1}) || isNoop(kernel.TBDesc{LocalBytes: 1}) {
		t.Fatal("compute TBs are not noop")
	}
	if isNoop(kernel.TBDesc{Post: []kernel.Access{{Bytes: 1}}}) {
		t.Fatal("TBs with accesses are not noop")
	}
}

func TestSynchronizerDuplicateWaitPanics(t *testing.T) {
	eng := sim.NewEngine()
	hwSeedGPU := newBareGPU(eng)
	s := hwSeedGPU.Synchronizer()
	s.waiting[syncKey{group: 1, phase: PhasePreLoad}] = &pendingWait{fn: func() {}}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate sync wait did not panic")
		}
	}()
	s.Wait(1, PhasePreLoad, 4, func() {})
}

func TestSynchronizerReleaseUnknownPanics(t *testing.T) {
	eng := sim.NewEngine()
	g := newBareGPU(eng)
	defer func() {
		if recover() == nil {
			t.Fatal("unknown release did not panic")
		}
	}()
	g.Synchronizer().Release(42, PhasePreReduce)
}

// newBareGPU builds a GPU with stub links for synchronizer tests.
func newBareGPU(eng *sim.Engine) *GPU {
	hw := testHardware()
	g := New(eng, 0, hw, nopSink{}, &noc.PacketPool{}, nil)
	for p := 0; p < hw.NumSwitchPlanes; p++ {
		g.ConnectUp(p, noc.NewLink(eng, 1e9, 0, noc.EndpointFunc(func(*noc.Packet) {})))
	}
	return g
}

// nopSink is a Host that routes like the static hash of the 2-plane test
// hardware and ignores deliveries.
type nopSink struct{}

func (nopSink) RouteAddr(addr uint64) int          { return int(addr % 2) }
func (nopSink) RouteGroup(group int) int           { return group % 2 }
func (nopSink) Deliver(int, *kernel.Access, int64) {}
func (nopSink) PublishTiles([]kernel.Tile)         {}

// chunkSizes splits n bytes into request-granularity chunks: the
// reference split that Hardware.RequestChunks and chunkSize must match.
func chunkSizes(n, chunk int64) []int64 {
	if n <= 0 {
		return []int64{0}
	}
	if chunk <= 0 {
		chunk = n
	}
	var out []int64
	for n > 0 {
		c := chunk
		if n < c {
			c = n
		}
		out = append(out, c)
		n -= c
	}
	return out
}
