// Package noc models the NVLink interconnect fabric at packet granularity:
// unidirectional links with serialization delay and propagation latency,
// virtual channels with round-robin arbitration (the paper's traffic
// control, Section III-C), and the request vocabulary shared by GPUs and
// switches — including the NVLS multimem operations and the CAIS
// compute-aware ld.cais / red.cais extensions.
package noc

import (
	"fmt"

	"cais/internal/pool"
	"cais/internal/sim"
	"cais/internal/trace"
)

// Op identifies the semantic operation a packet carries. The first group
// is plain peer-to-peer traffic, the second the communication-centric NVLS
// primitives (Fig. 1g), the third the CAIS compute-aware extensions
// (Fig. 4), and the fourth control traffic.
type Op int

const (
	// OpLoad is a plain P2P remote read request (control packet); the
	// home GPU answers with OpLoadResp carrying data.
	OpLoad Op = iota
	// OpLoadResp carries read data back to a requester.
	OpLoadResp
	// OpStore carries write data to the home GPU.
	OpStore

	// OpMultimemST is the NVLS push-mode multicast store backing
	// AllGather: one uplink data packet replicated by the switch to all
	// peers.
	OpMultimemST
	// OpMultimemLdReduce is the NVLS pull-mode reducing load backing
	// ReduceScatter/AllReduce: the switch fans read requests to every
	// GPU's replica, reduces in-flight, and returns one value.
	OpMultimemLdReduce
	// OpMultimemRed is the NVLS push-mode reduction.
	OpMultimemRed
	// OpReadFan is the switch-generated per-replica read of an
	// OpMultimemLdReduce fan-out (control packet to one GPU).
	OpReadFan

	// OpLdCAIS is the compute-aware mergeable load (ld.cais): same-address
	// loads from different GPUs are merged at the switch port's merge
	// unit — fetched once, replicated to all requesters (Micro-Function 1).
	OpLdCAIS
	// OpRedCAIS is the compute-aware mergeable reduction (red.cais):
	// same-address contributions accumulate in the merge unit and a
	// single result is written to the home GPU (Micro-Function 2).
	OpRedCAIS

	// OpSyncRequest registers one GPU's TB group with the switch's Group
	// Sync Table (pre-launch / pre-access synchronization).
	OpSyncRequest
	// OpSyncRelease is the switch's broadcast release for a TB group.
	OpSyncRelease
	// OpCredit is switch->GPU merge-tracker feedback used by TB-aware
	// request throttling.
	OpCredit
)

var opNames = map[Op]string{
	OpLoad:             "ld",
	OpLoadResp:         "ld.resp",
	OpStore:            "st",
	OpMultimemST:       "multimem.st",
	OpMultimemLdReduce: "multimem.ld_reduce",
	OpMultimemRed:      "multimem.red",
	OpReadFan:          "read.fan",
	OpLdCAIS:           "ld.cais",
	OpRedCAIS:          "red.cais",
	OpSyncRequest:      "sync.req",
	OpSyncRelease:      "sync.rel",
	OpCredit:           "credit",
}

func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", int(o))
}

// IsControl reports whether packets of this op carry no data payload (only
// the 16-byte header travels on the wire).
func (o Op) IsControl() bool {
	switch o {
	case OpLoad, OpMultimemLdReduce, OpReadFan, OpLdCAIS, OpSyncRequest, OpSyncRelease, OpCredit:
		return true
	default:
		return false
	}
}

// Class is the virtual-channel traffic class. The paper's traffic control
// (Sec. III-C-2) separates load from reduction traffic to avoid
// head-of-line blocking on the shared links.
type Class int

const (
	// ClassLoad carries load requests and load/gather data.
	ClassLoad Class = iota
	// ClassReduction carries reduction contributions and results.
	ClassReduction
	// ClassControl carries synchronization and credit packets.
	ClassControl
	numClasses
)

// ClassOf maps an op to its traffic class.
func ClassOf(op Op) Class {
	switch op {
	case OpLoad, OpLoadResp, OpMultimemST, OpMultimemLdReduce, OpReadFan, OpLdCAIS:
		return ClassLoad
	case OpStore, OpMultimemRed, OpRedCAIS:
		return ClassReduction
	default:
		return ClassControl
	}
}

// HeaderBytes is the per-packet header (one 16-byte flit, Sec. IV-A).
const HeaderBytes = 16

// Packet is one unit of traffic. Size is the payload in bytes; control
// packets have Size 0 and occupy only the header on the wire.
type Packet struct {
	Op    Op
	Addr  uint64 // address key used for routing and merging
	Home  int    // GPU owning Addr
	Src   int    // issuing GPU (or home GPU for responses)
	Dst   int    // destination GPU; -1 = switch-terminated
	Size  int64  // payload bytes
	Group int    // TB-group ID for sync/merge coordination; -1 = none

	// Contribs is, for reduction results flowing to the home GPU, how
	// many GPU contributions the payload already folds in. The home GPU
	// counts contributions to detect reduction completion.
	Contribs int

	// OnDone is invoked at the requester when the operation completes
	// (response delivered, or write committed at the home GPU).
	OnDone func()

	// OnAccepted is invoked when the switch's merge unit accepts the
	// request (after the credit-return latency) — the feedback signal
	// TB-aware request throttling paces against (Sec. III-B-2).
	OnAccepted func()

	// Tag carries protocol-specific context opaque to the fabric.
	Tag interface{}
}

// Reset clears every field so a recycled packet is indistinguishable from
// a fresh one; the packet pool calls it on Put.
func (p *Packet) Reset() {
	*p = Packet{}
}

// Expected returns the number of participating requests a mergeable
// request anticipates: on request packets Contribs carries the expected
// participant count set by the issuing kernel's group metadata. Requests
// without metadata expect only themselves.
func (p *Packet) Expected() int {
	if p.Contribs > 0 {
		return p.Contribs
	}
	return 1
}

// WireBytes is the packet's size on the wire including header flits.
func (p *Packet) WireBytes() int64 {
	if p.Op.IsControl() {
		return HeaderBytes
	}
	return p.Size + HeaderBytes
}

// Endpoint consumes delivered packets.
type Endpoint interface {
	Receive(p *Packet)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(p *Packet)

// Receive implements Endpoint.
func (f EndpointFunc) Receive(p *Packet) { f(p) }

// BusyRecorder observes link busy intervals; used to build the
// bandwidth-utilization-over-time series of Fig. 16.
type BusyRecorder interface {
	RecordBusy(start, end sim.Time, bytes int64)
}

// Link is a unidirectional NVLink: packets serialize at the link bandwidth
// and arrive after the propagation latency. With virtual channels enabled,
// per-class queues are served round-robin, eliminating head-of-line
// blocking between load and reduction traffic; otherwise a single FIFO is
// used (the CAIS-Partial configuration).
type Link struct {
	eng      *sim.Engine
	bw       float64 // bytes/s
	latency  sim.Time
	dst      Endpoint
	vcOn     bool
	sideband bool               // dedicated control/request channel (default on)
	control  pool.Ring[*Packet] // sideband queue: requests, sync, credits
	queues   [numClasses]pool.Ring[*Packet]
	fifo     pool.Ring[*Packet]
	rr       Class
	busy     bool
	bwScale  float64 // fault-injection bandwidth degradation factor (1 = healthy)
	down     bool    // fault-injection link-down: queued packets stall until repair
	busyTime sim.Time
	sent     int64 // total wire bytes
	recorder BusyRecorder
	maxQueue int

	// inflight holds packets whose serialization has been booked, in
	// transmit order. Serialization end times are monotonic and the
	// propagation latency is fixed, so delivery is FIFO: the two cached
	// closures below replace the two per-packet closures the hot path used
	// to allocate (18% of all simulation allocations, by -pprof).
	inflight       pool.Ring[*Packet]
	onSerializedFn func()
	deliverFn      func()

	tr    *trace.Tracer // nil until TraceOn
	trPid int32
	trTid int32
}

// NewLink creates a link delivering to dst. The control sideband is
// enabled by default.
func NewLink(eng *sim.Engine, bytesPerSecond float64, latency sim.Time, dst Endpoint) *Link {
	if bytesPerSecond <= 0 {
		panic("noc: link bandwidth must be positive")
	}
	l := &Link{eng: eng, bw: bytesPerSecond, latency: latency, dst: dst, sideband: true, bwScale: 1}
	l.onSerializedFn = l.onSerialized
	l.deliverFn = l.deliver
	return l
}

// TraceOn places the link's busy intervals on a trace track of tr: every
// transmitted packet becomes a complete span on (pid, tid). The assembly
// layer assigns tracks; without it, or with a nil tracer, the link records
// nothing.
func (l *Link) TraceOn(tr *trace.Tracer, pid, tid int32) {
	l.tr, l.trPid, l.trTid = tr, pid, tid
}

// SetControlSideband enables (default) or disables the dedicated channel
// for header-only packets. Disabling it is a design ablation: control
// traffic then queues behind data and suffers head-of-line blocking.
func (l *Link) SetControlSideband(on bool) { l.sideband = on }

// SetVirtualChannels enables (true) or disables (false) per-class virtual
// channels with round-robin arbitration. Must be configured before traffic
// flows.
func (l *Link) SetVirtualChannels(on bool) { l.vcOn = on }

// SetRecorder installs a busy-interval observer.
func (l *Link) SetRecorder(r BusyRecorder) { l.recorder = r }

// SetBandwidthScale degrades (or restores) the link's effective bandwidth:
// packets serialized after the call see bw*scale. In-flight packets keep the
// serialization time computed at transmit start — degradation is felt at the
// next arbitration decision, like a real link retraining to fewer lanes.
func (l *Link) SetBandwidthScale(scale float64) {
	if scale <= 0 {
		panic("noc: bandwidth scale must be positive")
	}
	l.bwScale = scale
}

// BandwidthScale reports the current degradation factor (1 = healthy).
func (l *Link) BandwidthScale() float64 { return l.bwScale }

// SetDown takes the link down (true) or repairs it (false). A down link
// stalls: Send still enqueues, an in-flight packet finishes its
// serialization and delivery, but no new packet starts until repair. Stall
// time does not count toward BusyTime/Utilization — a dead link is idle,
// not busy. On repair, transmission resumes immediately if traffic queued.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if !down && !l.busy {
		l.transmitNext()
	}
}

// Down reports whether the link is currently failed.
func (l *Link) Down() bool { return l.down }

// BusyTime reports accumulated serialization time.
func (l *Link) BusyTime() sim.Time { return l.busyTime }

// BytesSent reports total wire bytes transmitted (including headers).
func (l *Link) BytesSent() int64 { return l.sent }

// MaxQueueDepth reports the high-water mark of queued packets.
func (l *Link) MaxQueueDepth() int { return l.maxQueue }

// Utilization reports busy fraction over [0, horizon].
func (l *Link) Utilization(horizon sim.Time) float64 {
	if horizon <= 0 {
		return 0
	}
	u := float64(l.busyTime) / float64(horizon)
	if u > 1 {
		u = 1
	}
	return u
}

// Send enqueues p for transmission. Header-only packets (requests,
// synchronization, credits) always travel on a dedicated request/control
// channel — NVSwitch reserves virtual channels for control flits and read
// requests — so the paper's traffic-control knob governs only the
// separation of load and reduction data streams.
func (l *Link) Send(p *Packet) {
	switch {
	case l.sideband && p.Op.IsControl():
		l.control.PushBack(p)
	case l.vcOn:
		l.queues[ClassOf(p.Op)].PushBack(p)
	default:
		l.fifo.PushBack(p)
	}
	if d := l.queueDepth(); d > l.maxQueue {
		l.maxQueue = d
	}
	if !l.busy && !l.down {
		l.transmitNext()
	}
}

// QueueDepth reports the number of packets currently queued (not in
// flight). Exposed for fault-injection tests and diagnostics.
func (l *Link) QueueDepth() int { return l.queueDepth() }

func (l *Link) queueDepth() int {
	n := l.control.Len()
	if !l.vcOn {
		return n + l.fifo.Len()
	}
	for c := range l.queues {
		n += l.queues[c].Len()
	}
	return n
}

// pop selects the next packet, or nil when none is queued: control
// sideband first (header-only flits), then data per the arbitration policy.
func (l *Link) pop() *Packet {
	if l.control.Len() > 0 {
		return l.control.PopFront()
	}
	if !l.vcOn {
		if l.fifo.Len() > 0 {
			return l.fifo.PopFront()
		}
		return nil
	}
	// Round-robin over non-empty classes after the last served (the
	// ClassControl queue is only populated when the sideband is off).
	for i := 1; i <= int(numClasses); i++ {
		c := Class((int(l.rr) + i) % int(numClasses))
		if l.queues[c].Len() > 0 {
			l.rr = c
			return l.queues[c].PopFront()
		}
	}
	return nil
}

func (l *Link) transmitNext() {
	if l.down {
		// Stall: leave the queue intact; SetDown(false) restarts us.
		l.busy = false
		return
	}
	p := l.pop()
	if p == nil {
		l.busy = false
		return
	}
	l.busy = true
	wire := p.WireBytes()
	ser := sim.DurationForBytes(wire, l.bw*l.bwScale)
	start := l.eng.Now()
	end := start + ser
	l.busyTime += ser
	l.sent += wire
	if l.recorder != nil {
		l.recorder.RecordBusy(start, end, wire)
	}
	if l.tr.Enabled() {
		l.tr.Span(l.trPid, l.trTid, "noc.link", p.Op.String(), start, end)
	}
	// Cut-through delivery: the head arrives after latency, the tail
	// after latency + serialization. The packet parks on the inflight
	// ring; onSerialized/deliver pair it back up in FIFO order.
	l.inflight.PushBack(p)
	l.eng.At(end, l.onSerializedFn)
}

// onSerialized runs when the oldest in-flight packet finishes serializing:
// its delivery is scheduled after the propagation latency, and the link
// arbitrates the next packet.
func (l *Link) onSerialized() {
	l.eng.After(l.latency, l.deliverFn)
	l.transmitNext()
}

// deliver hands the oldest in-flight packet to the destination. Deliveries
// fire in transmit order (monotonic serialization ends + fixed latency), so
// popping the ring head always yields the matching packet.
func (l *Link) deliver() {
	l.dst.Receive(l.inflight.PopFront())
}
