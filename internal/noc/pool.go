package noc

import "cais/internal/pool"

// PacketPool is the per-run free list for Packets. It is created by the
// assembly layer (machine.New) and handed to every GPU and switch of the
// run at construction — the whole simulation is single-threaded, so one
// unsynchronized stack suffices.
//
// Ownership rule: whoever terminally consumes a packet releases it with
// Put, and must not reference it again: any event closure or session still
// holding it is a lifecycle bug that resurfaces as cross-talk after reuse.
// A forwarded packet (switch relaying a store to the home GPU) is not
// consumed; a packet whose content has been absorbed (merge-unit
// contribution folded into a session, sync request registered, data
// committed to HBM) is.
type PacketPool = pool.Pool[Packet, *Packet]
