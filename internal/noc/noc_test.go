package noc

import (
	"testing"
	"testing/quick"

	"cais/internal/sim"
)

type sink struct {
	got   []*Packet
	times []sim.Time
	eng   *sim.Engine
}

func (s *sink) Receive(p *Packet) {
	s.got = append(s.got, p)
	s.times = append(s.times, s.eng.Now())
}

func newTestLink(bw float64, lat sim.Time) (*sim.Engine, *Link, *sink) {
	eng := sim.NewEngine()
	s := &sink{eng: eng}
	l := NewLink(eng, bw, lat, s)
	return eng, l, s
}

func TestLinkDeliversAfterSerializationPlusLatency(t *testing.T) {
	// 100 GB/s = 0.1 B/ps; 1000-byte payload + 16B header = 10160 ps.
	eng, l, s := newTestLink(100e9, 250*sim.Nanosecond)
	p := &Packet{Op: OpStore, Size: 1000}
	eng.At(0, func() { l.Send(p) })
	eng.Run()
	if len(s.got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(s.got))
	}
	want := sim.Time(10160) + 250*sim.Nanosecond
	if s.times[0] != want {
		t.Fatalf("delivery at %v, want %v", s.times[0], want)
	}
}

func TestLinkControlPacketsOnlyCarryHeader(t *testing.T) {
	eng, l, s := newTestLink(16e12, sim.Nanosecond) // 16 B/ps -> header = 1ps
	eng.At(0, func() { l.Send(&Packet{Op: OpLdCAIS, Size: 1 << 20}) })
	eng.Run()
	if s.times[0] != sim.Nanosecond+1 {
		t.Fatalf("control packet delivery at %v, want 1.001ns", s.times[0])
	}
	if l.BytesSent() != HeaderBytes {
		t.Fatalf("wire bytes = %d, want %d", l.BytesSent(), HeaderBytes)
	}
}

func TestLinkSerializesBackToBack(t *testing.T) {
	eng, l, s := newTestLink(100e9, 0)
	// Two packets sent at t=0: second must wait for first's serialization.
	eng.At(0, func() {
		l.Send(&Packet{Op: OpStore, Size: 984}) // wire 1000B -> 10ns
		l.Send(&Packet{Op: OpStore, Size: 984})
	})
	eng.Run()
	if s.times[0] != 10*sim.Nanosecond || s.times[1] != 20*sim.Nanosecond {
		t.Fatalf("deliveries at %v, %v; want 10ns, 20ns", s.times[0], s.times[1])
	}
	if l.BusyTime() != 20*sim.Nanosecond {
		t.Fatalf("busy = %v, want 20ns", l.BusyTime())
	}
}

func TestLinkFIFOHeadOfLineBlocking(t *testing.T) {
	// Without VCs, a control load request queued behind a large reduction
	// payload is delayed by the full serialization (head-of-line blocking).
	eng, l, s := newTestLink(100e9, 0)
	eng.At(0, func() {
		l.Send(&Packet{Op: OpRedCAIS, Size: 99984}) // 100000B -> 1000ns
		l.Send(&Packet{Op: OpLdCAIS})               // header only
	})
	eng.Run()
	if s.got[0].Op != OpRedCAIS {
		t.Fatal("FIFO order violated")
	}
	if s.times[1] < 1000*sim.Nanosecond {
		t.Fatalf("load escaped HoL blocking: %v", s.times[1])
	}
}

func TestLinkVirtualChannelsRoundRobin(t *testing.T) {
	// With VCs the interleaving alternates between classes even though all
	// reduction packets were enqueued first.
	eng, l, s := newTestLink(100e9, 0)
	l.SetVirtualChannels(true)
	eng.At(0, func() {
		for i := 0; i < 3; i++ {
			l.Send(&Packet{Op: OpRedCAIS, Size: 984})
		}
		for i := 0; i < 3; i++ {
			l.Send(&Packet{Op: OpLoadResp, Size: 984})
		}
	})
	eng.Run()
	if len(s.got) != 6 {
		t.Fatalf("delivered %d, want 6", len(s.got))
	}
	// First packet was already in flight when loads arrived; thereafter
	// classes must alternate.
	sawAlternation := false
	for i := 1; i < len(s.got)-1; i++ {
		if ClassOf(s.got[i].Op) != ClassOf(s.got[i+1].Op) {
			sawAlternation = true
		}
	}
	if !sawAlternation {
		t.Fatalf("no class alternation under VC arbitration: %v", opsOf(s.got))
	}
	// A load must be served before all reductions are done.
	firstLoad := -1
	for i, p := range s.got {
		if p.Op == OpLoadResp {
			firstLoad = i
			break
		}
	}
	if firstLoad >= 3 {
		t.Fatalf("loads fully blocked behind reductions: %v", opsOf(s.got))
	}
}

func opsOf(ps []*Packet) []Op {
	ops := make([]Op, len(ps))
	for i, p := range ps {
		ops[i] = p.Op
	}
	return ops
}

func TestLinkUtilization(t *testing.T) {
	eng, l, _ := newTestLink(100e9, 0)
	eng.At(0, func() { l.Send(&Packet{Op: OpStore, Size: 984}) }) // 10ns busy
	eng.Run()
	if u := l.Utilization(40 * sim.Nanosecond); u != 0.25 {
		t.Fatalf("utilization = %v, want 0.25", u)
	}
}

func TestClassOfCoversAllOps(t *testing.T) {
	cases := map[Op]Class{
		OpLoad:             ClassLoad,
		OpLoadResp:         ClassLoad,
		OpMultimemST:       ClassLoad,
		OpMultimemLdReduce: ClassLoad,
		OpReadFan:          ClassLoad,
		OpLdCAIS:           ClassLoad,
		OpStore:            ClassReduction,
		OpMultimemRed:      ClassReduction,
		OpRedCAIS:          ClassReduction,
		OpSyncRequest:      ClassControl,
		OpSyncRelease:      ClassControl,
		OpCredit:           ClassControl,
	}
	for op, want := range cases {
		if got := ClassOf(op); got != want {
			t.Errorf("ClassOf(%v) = %v, want %v", op, got, want)
		}
	}
}

func TestOpIsControl(t *testing.T) {
	control := []Op{OpLoad, OpMultimemLdReduce, OpReadFan, OpLdCAIS, OpSyncRequest, OpSyncRelease, OpCredit}
	data := []Op{OpLoadResp, OpStore, OpMultimemST, OpMultimemRed, OpRedCAIS}
	for _, op := range control {
		if !op.IsControl() {
			t.Errorf("%v should be control", op)
		}
	}
	for _, op := range data {
		if op.IsControl() {
			t.Errorf("%v should carry data", op)
		}
	}
}

func TestOpStringNames(t *testing.T) {
	if OpLdCAIS.String() != "ld.cais" || OpRedCAIS.String() != "red.cais" {
		t.Fatal("CAIS op names wrong")
	}
	if OpMultimemST.String() != "multimem.st" {
		t.Fatal("multimem.st name wrong")
	}
	if Op(999).String() == "" {
		t.Fatal("unknown op should still render")
	}
}

func TestLinkConservesBytes(t *testing.T) {
	// Property: total delivered payload equals total sent payload and
	// wire bytes account for all headers, for any packet mix.
	f := func(sizes []uint16, vc bool) bool {
		eng, l, s := newTestLink(450e9, 250*sim.Nanosecond)
		l.SetVirtualChannels(vc)
		var sentPayload int64
		eng.At(0, func() {
			for i, sz := range sizes {
				op := OpStore
				if i%2 == 1 {
					op = OpLoadResp
				}
				l.Send(&Packet{Op: op, Size: int64(sz)})
				sentPayload += int64(sz)
			}
		})
		eng.Run()
		var gotPayload int64
		for _, p := range s.got {
			gotPayload += p.Size
		}
		return len(s.got) == len(sizes) &&
			gotPayload == sentPayload &&
			l.BytesSent() == sentPayload+int64(len(sizes))*HeaderBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

type intervalRec struct {
	total sim.Time
	bytes int64
}

func (r *intervalRec) RecordBusy(start, end sim.Time, b int64) {
	r.total += end - start
	r.bytes += b
}

func TestLinkRecorderSeesAllBusyTime(t *testing.T) {
	eng, l, _ := newTestLink(100e9, 0)
	rec := &intervalRec{}
	l.SetRecorder(rec)
	eng.At(0, func() {
		l.Send(&Packet{Op: OpStore, Size: 984})
		l.Send(&Packet{Op: OpLoadResp, Size: 1984})
	})
	eng.Run()
	if rec.total != l.BusyTime() {
		t.Fatalf("recorder total %v != link busy %v", rec.total, l.BusyTime())
	}
	if rec.bytes != l.BytesSent() {
		t.Fatalf("recorder bytes %d != link sent %d", rec.bytes, l.BytesSent())
	}
}

func TestControlSidebandBypassesData(t *testing.T) {
	// A sync release behind a large data packet must still arrive first
	// when the sideband is on (default)...
	eng, l, s := newTestLink(100e9, 0)
	eng.At(0, func() {
		l.Send(&Packet{Op: OpRedCAIS, Size: 99984}) // 1000ns serialization
		l.Send(&Packet{Op: OpSyncRelease})
	})
	eng.Run()
	if s.got[1].Op != OpSyncRelease || s.times[1] >= 1010*sim.Nanosecond {
		t.Fatalf("sideband did not prioritize control: %v at %v", s.got[1].Op, s.times[1])
	}

	// ...and must queue behind it when the sideband is disabled.
	eng2 := sim.NewEngine()
	s2 := &sink{eng: eng2}
	l2 := NewLink(eng2, 100e9, 0, s2)
	l2.SetControlSideband(false)
	eng2.At(0, func() {
		l2.Send(&Packet{Op: OpRedCAIS, Size: 99984})
		l2.Send(&Packet{Op: OpSyncRelease})
	})
	eng2.Run()
	if s2.times[1] < 1000*sim.Nanosecond {
		t.Fatalf("disabled sideband still bypassed data: %v", s2.times[1])
	}
}

func TestRequestPacketsUseSideband(t *testing.T) {
	// ld.cais requests are header-only and ride the sideband past QUEUED
	// load-response data (the in-flight packet still finishes first).
	eng, l, s := newTestLink(100e9, 0)
	eng.At(0, func() {
		l.Send(&Packet{Op: OpLoadResp, Size: 99984}) // in flight
		l.Send(&Packet{Op: OpLoadResp, Size: 99984}) // queued
		l.Send(&Packet{Op: OpLdCAIS})                // must jump the queue
	})
	eng.Run()
	if s.got[1].Op != OpLdCAIS {
		t.Fatalf("request did not bypass the queued data: %v", opsOf(s.got))
	}
}

// Arbitration edge cases (table-driven): saturated single-class queues,
// classes draining to empty mid-stream, and control traffic sharing the
// round-robin when the sideband is off.
func TestLinkArbitrationEdgeCases(t *testing.T) {
	cases := []struct {
		name      string
		vc        bool
		sideband  bool
		send      []*Packet
		wantOrder []Op
		wantMaxQ  int
	}{
		{
			// Only one class has traffic: round-robin must not stall on
			// the two empty classes and order stays FIFO within the class.
			name: "saturated-single-class",
			vc:   true, sideband: true,
			send: []*Packet{
				{Op: OpRedCAIS, Size: 984},
				{Op: OpRedCAIS, Size: 984},
				{Op: OpRedCAIS, Size: 984},
				{Op: OpRedCAIS, Size: 984},
			},
			wantOrder: []Op{OpRedCAIS, OpRedCAIS, OpRedCAIS, OpRedCAIS},
			wantMaxQ:  3, // head transmits immediately; three wait
		},
		{
			// A class empties mid-stream: the arbiter must fall through to
			// the remaining class without a gap.
			name: "class-drains-to-zero",
			vc:   true, sideband: true,
			send: []*Packet{
				{Op: OpRedCAIS, Size: 984},
				{Op: OpLoadResp, Size: 984},
				{Op: OpLoadResp, Size: 984},
				{Op: OpLoadResp, Size: 984},
			},
			wantOrder: []Op{OpRedCAIS, OpLoadResp, OpLoadResp, OpLoadResp},
			wantMaxQ:  3,
		},
		{
			// Sideband off + VCs on: control packets take the ClassControl
			// queue and win the next round-robin grant over queued data.
			name: "control-joins-round-robin",
			vc:   true, sideband: false,
			send: []*Packet{
				{Op: OpRedCAIS, Size: 984},
				{Op: OpLoadResp, Size: 984},
				{Op: OpSyncRelease},
			},
			wantOrder: []Op{OpRedCAIS, OpSyncRelease, OpLoadResp},
			wantMaxQ:  2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			eng, l, s := newTestLink(100e9, 0)
			l.SetVirtualChannels(tc.vc)
			l.SetControlSideband(tc.sideband)
			eng.At(0, func() {
				for _, p := range tc.send {
					l.Send(p)
				}
			})
			eng.Run()
			if len(s.got) != len(tc.wantOrder) {
				t.Fatalf("delivered %d packets, want %d", len(s.got), len(tc.wantOrder))
			}
			for i, op := range tc.wantOrder {
				if s.got[i].Op != op {
					t.Fatalf("delivery order %v, want %v", opsOf(s.got), tc.wantOrder)
				}
			}
			if l.MaxQueueDepth() != tc.wantMaxQ {
				t.Fatalf("max queue depth = %d, want %d", l.MaxQueueDepth(), tc.wantMaxQ)
			}
			if l.QueueDepth() != 0 {
				t.Fatalf("residual queue depth = %d after drain", l.QueueDepth())
			}
		})
	}
}

func TestLinkNearZeroBandwidthBackToBack(t *testing.T) {
	// A 99.9% degraded link still makes forward progress: back-to-back
	// packets serialize strictly, 1000x slower.
	eng, l, s := newTestLink(100e9, 0)
	eng.At(0, func() {
		l.SetBandwidthScale(0.001) // 100 MB/s effective: 1000B -> 10us
		l.Send(&Packet{Op: OpStore, Size: 984})
		l.Send(&Packet{Op: OpStore, Size: 984})
	})
	eng.Run()
	if len(s.got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(s.got))
	}
	if s.times[0] != 10*sim.Microsecond || s.times[1] != 20*sim.Microsecond {
		t.Fatalf("deliveries at %v, %v; want 10us, 20us", s.times[0], s.times[1])
	}
	if l.BusyTime() != 20*sim.Microsecond {
		t.Fatalf("busy = %v, want 20us", l.BusyTime())
	}
}

func TestLinkDegradeMidFlightAffectsNextPacketOnly(t *testing.T) {
	// Degradation lands at the next arbitration decision: the in-flight
	// packet keeps its start-of-transmit serialization time.
	eng, l, s := newTestLink(100e9, 0)
	eng.At(0, func() {
		l.Send(&Packet{Op: OpStore, Size: 984}) // 10ns at full rate
		l.Send(&Packet{Op: OpStore, Size: 984})
	})
	eng.At(5*sim.Nanosecond, func() { l.SetBandwidthScale(0.5) })
	eng.Run()
	if s.times[0] != 10*sim.Nanosecond {
		t.Fatalf("in-flight packet rescheduled by degradation: %v", s.times[0])
	}
	if s.times[1] != 30*sim.Nanosecond { // 10ns wait + 20ns at half rate
		t.Fatalf("second delivery at %v, want 30ns", s.times[1])
	}
	if l.BandwidthScale() != 0.5 {
		t.Fatalf("scale = %v, want 0.5", l.BandwidthScale())
	}
}

func TestLinkDownMidFlightUtilization(t *testing.T) {
	// The link fails while a packet is on the wire: the in-flight packet
	// completes, the queued one stalls until repair, and the stall window
	// counts as idle — BusyTime covers only true serialization.
	eng, l, s := newTestLink(100e9, 0)
	eng.At(0, func() {
		l.Send(&Packet{Op: OpStore, Size: 984}) // 10ns ser
		l.Send(&Packet{Op: OpStore, Size: 984})
	})
	eng.At(5*sim.Nanosecond, func() { l.SetDown(true) })
	eng.At(1005*sim.Nanosecond, func() { l.SetDown(false) })
	eng.Run()
	if len(s.got) != 2 {
		t.Fatalf("delivered %d packets, want 2", len(s.got))
	}
	if s.times[0] != 10*sim.Nanosecond {
		t.Fatalf("in-flight packet delivery at %v, want 10ns", s.times[0])
	}
	if s.times[1] != 1015*sim.Nanosecond {
		t.Fatalf("stalled packet delivery at %v, want 1015ns", s.times[1])
	}
	if l.BusyTime() != 20*sim.Nanosecond {
		t.Fatalf("busy = %v, want 20ns (stall must not count)", l.BusyTime())
	}
	if u := l.Utilization(1015 * sim.Nanosecond); u >= 0.02 {
		t.Fatalf("utilization %v should reflect the idle outage window", u)
	}
}

func TestLinkSendWhileDownQueues(t *testing.T) {
	eng, l, s := newTestLink(100e9, 0)
	eng.At(0, func() { l.SetDown(true) })
	eng.At(1*sim.Nanosecond, func() {
		l.Send(&Packet{Op: OpStore, Size: 984})
		if l.QueueDepth() != 1 {
			t.Fatalf("queue depth = %d while down, want 1", l.QueueDepth())
		}
	})
	eng.At(100*sim.Nanosecond, func() { l.SetDown(false) })
	eng.Run()
	if len(s.got) != 1 || s.times[0] != 110*sim.Nanosecond {
		t.Fatalf("post-repair delivery = %v, want one packet at 110ns", s.times)
	}
}
