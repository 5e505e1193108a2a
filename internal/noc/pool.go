package noc

import "cais/internal/pool"

// PacketPool is the per-run free list for Packets. It is created by the
// assembly layer (machine.New) and shared by every GPU and switch in the
// run — the whole simulation is single-threaded, so one unsynchronized
// stack suffices.
//
// Ownership rule: whoever terminally consumes a packet releases it. A
// forwarded packet (switch relaying a store to the home GPU) is not
// consumed; a packet whose content has been absorbed (merge-unit
// contribution folded into a session, sync request registered, data
// committed to HBM) is. A nil *PacketPool is valid and degrades to plain
// allocation, so unit tests that wire components by hand keep working.
type PacketPool struct {
	p pool.Pool[Packet, *Packet]
}

// Get returns a zeroed packet, recycled when possible.
func (pp *PacketPool) Get() *Packet {
	if pp == nil {
		return &Packet{}
	}
	return pp.p.Get()
}

// Put recycles a packet the caller terminally consumed. The packet must not
// be referenced again: any event closure or session still holding it is a
// lifecycle bug that resurfaces as cross-talk after reuse.
func (pp *PacketPool) Put(p *Packet) {
	if pp == nil || p == nil {
		return
	}
	pp.p.Put(p)
}

// Stats reports pool traffic (total gets, fresh allocations, free-list
// depth); nil pools report zeros.
func (pp *PacketPool) Stats() (gets, news, idle int) {
	if pp == nil {
		return 0, 0, 0
	}
	return pp.p.Stats()
}
