package noc

import (
	"runtime"
	"testing"
	"weak"

	"cais/internal/sim"
)

// A link queues packets on pool.Ring deques: the control sideband, the
// per-class virtual channels, the single FIFO and the in-flight ring. These
// tests pin, through the link, what it needs of them.

func TestRingFIFOAcrossWrap(t *testing.T) {
	for _, vc := range []bool{false, true} {
		eng, l, s := newTestLink(100e9, 50*sim.Nanosecond)
		l.SetVirtualChannels(vc)
		// Bursts of three 10 ns packets every 25 ns keep a few packets
		// queued and a few in flight, so each ring's head wraps its
		// 16-slot backing array several times.
		pkts := make([]*Packet, 100)
		for i := range pkts {
			p := &Packet{Op: OpStore, Addr: uint64(i), Size: 984}
			pkts[i] = p
			eng.At(sim.Time(i/3)*25*sim.Nanosecond, func() { l.Send(p) })
		}
		eng.Run()
		if len(s.got) != len(pkts) {
			t.Fatalf("vc=%v: delivered %d packets, want %d", vc, len(s.got), len(pkts))
		}
		for i, p := range s.got {
			if p != pkts[i] {
				t.Fatalf("vc=%v: delivery %d is packet %d", vc, i, p.Addr)
			}
		}
	}
}

// TestRingPopClearsSlot: a delivered packet is not pinned by any of the
// link's rings, so the GC or a packet pool can take it back.
func TestRingPopClearsSlot(t *testing.T) {
	for _, vc := range []bool{false, true} {
		eng := sim.NewEngine()
		l := NewLink(eng, 100e9, sim.Nanosecond, EndpointFunc(func(*Packet) {}))
		l.SetVirtualChannels(vc)
		var sent []weak.Pointer[Packet]
		for _, op := range []Op{OpStore, OpLdCAIS, OpRedCAIS} {
			p := &Packet{Op: op, Size: 984}
			sent = append(sent, weak.Make(p))
			l.Send(p)
		}
		eng.Run()
		runtime.GC()
		for i, w := range sent {
			if w.Value() != nil {
				t.Errorf("vc=%v: packet %d still reachable after delivery", vc, i)
			}
		}
		runtime.KeepAlive(l)
	}
}

func TestRingSteadyStateZeroAlloc(t *testing.T) {
	eng := sim.NewEngine()
	l := NewLink(eng, 100e9, sim.Nanosecond, EndpointFunc(func(*Packet) {}))
	l.SetVirtualChannels(true)
	pkts := []*Packet{{Op: OpStore, Size: 984}, {Op: OpLdCAIS}, {Op: OpRedCAIS, Size: 984}}
	// An 8-deep burst per class warms every ring to its high-water
	// capacity; churn at that depth must never reallocate.
	burst := func() {
		for i := 0; i < 8; i++ {
			for _, p := range pkts {
				l.Send(p)
			}
		}
		eng.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(100, burst); allocs != 0 {
		t.Fatalf("steady-state link churn allocates %v allocs/op, want 0", allocs)
	}
}
