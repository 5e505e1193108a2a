// Package pool provides typed, per-run free-lists for the simulator's
// high-churn objects (noc packets, gpu requests and TB runs, nvswitch merge
// sessions). A Pool is a plain stack of recycled pointers: the engine
// packages are single-threaded by construction (enforced by caislint's
// goroutine check), so no synchronization is needed and Get/Put compile to
// a few instructions.
//
// Pools are owned by the per-run assembly (machine.New) and die with it, so
// recycled objects never leak across simulation points and a leaked object
// costs at most one run's worth of memory.
//
// Lifecycle by construction: a Pool only accepts element types whose
// pointer carries a Reset method, and Put calls it before pushing the
// object. Get therefore never hands out another lifetime's state, and no
// call site can forget the reset — a stale field after reuse is a Reset
// bug, not a call-site bug.
package pool

// Pool is a stack-backed free list of *T that resets objects on Put. PT is
// always *T; it exists so the constraint can require Reset on the pointer
// (declare fields as Pool[Packet, *Packet]). The zero value is ready to use.
type Pool[T any, PT interface {
	*T
	Reset()
}] struct {
	free []*T
	news int
	gets int
}

// Get pops a recycled object, or allocates a fresh zero-valued T when the
// free list is empty. Recycled objects were Reset by Put.
func (p *Pool[T, PT]) Get() *T {
	p.gets++
	if n := len(p.free); n > 0 {
		x := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return x
	}
	p.news++
	return new(T)
}

// Put resets x and pushes it back onto the free list; Put(nil) is a no-op.
// Putting the same object twice without an intervening Get corrupts the
// pool; the lifecycle events that call Put (packet delivered, TB retired,
// session flushed) each fire exactly once.
func (p *Pool[T, PT]) Put(x *T) {
	if x == nil {
		return
	}
	PT(x).Reset()
	p.free = append(p.free, x)
}

// Stats reports pool traffic: total Gets, how many allocated fresh objects,
// and the current free-list depth. Used by tests and diagnostics.
func (p *Pool[T, PT]) Stats() (gets, news, idle int) {
	return p.gets, p.news, len(p.free)
}
