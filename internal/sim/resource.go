package sim

import "cais/internal/pool"

// Resource models a serialized, full-throughput resource such as a link's
// serialization stage or a GPU's HBM share. Callers reserve an interval of
// exclusive use; the resource tracks its next-free time and accumulated
// busy time for utilization reporting.
//
// Resource intentionally does not schedule events itself: the caller
// receives the (start, end) interval and schedules whatever completion
// events it needs, which keeps queueing policy (FIFO vs virtual channels)
// in the component that owns the policy.
type Resource struct {
	freeAt Time
	busy   Time
}

// NewResource returns an idle resource.
func NewResource() *Resource {
	return &Resource{}
}

// Reserve books dur of exclusive use no earlier than now and returns the
// interval granted. Reservations are FIFO: each call starts at
// max(now, previous end).
func (r *Resource) Reserve(now Time, dur Time) (start, end Time) {
	if dur < 0 {
		dur = 0
	}
	start = now
	if r.freeAt > start {
		start = r.freeAt
	}
	end = start + dur
	r.freeAt = end
	r.busy += dur
	return start, end
}

// BusyTime reports the total reserved time.
func (r *Resource) BusyTime() Time { return r.busy }

// Utilization reports busy time as a fraction of the window [0, horizon].
func (r *Resource) Utilization(horizon Time) float64 {
	if horizon <= 0 {
		return 0
	}
	u := float64(r.busy) / float64(horizon)
	if u > 1 {
		u = 1
	}
	return u
}

// Latch is a pooled countdown latch used to model barriers: LatchPool.Get
// arms it with a count and a single pre-bound callback, and the final Done
// call fires the callback at that simulated time. Firing recycles the
// latch into its pool, and the DoneFunc method value is cached across pool
// round trips, so the machine-layer kernel-completion path counts down
// without allocating a closure per latch.
type Latch struct {
	remaining int
	fn        func()
	home      *LatchPool // recycle destination

	// doneFn is the cached Done method value. It is bound to this object's
	// identity and deliberately survives Reset.
	doneFn func()
}

// Reset clears the latch for pool reuse; the cached doneFn method value
// is the object's identity and survives.
func (l *Latch) Reset() { *l = Latch{doneFn: l.doneFn} }

// Remaining reports outstanding completions.
func (l *Latch) Remaining() int { return l.remaining }

// Done counts down one completion, firing the callback when the count hits
// zero. Calling Done on a released latch panics: it indicates a
// double-completion bug in the caller.
func (l *Latch) Done() {
	if l.remaining <= 0 {
		panic("sim: Latch.Done on released latch")
	}
	l.remaining--
	if l.remaining == 0 {
		l.fire()
	}
}

// DoneFunc returns the cached Done method value. Pooled latches create it
// once per object lifetime, so handing it to N waiters costs nothing on
// reuse. Callers must not invoke it after the latch has released.
func (l *Latch) DoneFunc() func() {
	if l.doneFn == nil {
		l.doneFn = l.Done
	}
	return l.doneFn
}

// fire releases the latch. It recycles itself before invoking the
// callback, so the callback may immediately Get a fresh latch from the
// same pool (the machine launches follow-up kernels from completion
// callbacks).
func (l *Latch) fire() {
	fn := l.fn
	l.home.p.Put(l)
	if fn != nil {
		fn()
	}
}

// LatchPool is a free list of latches. The zero value is ready to use.
type LatchPool struct {
	p pool.Pool[Latch, *Latch]
}

// Get returns a latch waiting for n completions (n must be >= 1) that
// invokes fn — which may be nil — when the count reaches zero and then
// recycles itself. The caller must arrange exactly n Done calls (use
// DoneFunc to hand the countdown to the waiters allocation-free).
func (lp *LatchPool) Get(n int, fn func()) *Latch {
	if n < 1 {
		panic("sim: LatchPool.Get needs n >= 1")
	}
	l := lp.p.Get()
	l.remaining = n
	l.fn = fn
	l.home = lp
	return l
}

// Stats reports pool traffic (total Gets, fresh allocations, idle depth).
func (lp *LatchPool) Stats() (gets, news, idle int) { return lp.p.Stats() }
