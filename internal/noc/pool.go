package noc

import "cais/internal/pool"

// PacketPool is the per-run free list for Packets. It is created by the
// assembly layer (machine.New) and handed to every GPU and switch of the
// run at construction — the whole simulation is single-threaded, so one
// unsynchronized stack suffices.
//
// Ownership rule: whoever terminally consumes a packet releases it. A
// forwarded packet (switch relaying a store to the home GPU) is not
// consumed; a packet whose content has been absorbed (merge-unit
// contribution folded into a session, sync request registered, data
// committed to HBM) is.
type PacketPool struct {
	p pool.Pool[Packet, *Packet]
}

// Get returns a zeroed packet, recycled when possible.
func (pp *PacketPool) Get() *Packet { return pp.p.Get() }

// Put recycles a packet the caller terminally consumed. The packet must not
// be referenced again: any event closure or session still holding it is a
// lifecycle bug that resurfaces as cross-talk after reuse.
func (pp *PacketPool) Put(p *Packet) { pp.p.Put(p) }

// Stats reports pool traffic (total gets, fresh allocations, free-list
// depth).
func (pp *PacketPool) Stats() (gets, news, idle int) { return pp.p.Stats() }
