// Package sim provides the discrete-event simulation engine used by every
// other subsystem in the CAIS reproduction: a deterministic event heap with
// picosecond resolution, a splitmix64-based reproducible RNG, serialized
// resources for bandwidth/occupancy accounting, and countdown latches for
// barrier modeling.
//
// All simulated components (GPUs, links, switches, runtimes) share one
// Engine and communicate exclusively by scheduling events on it, so a whole
// multi-GPU system simulation is single-threaded and bit-reproducible.
package sim

import (
	"fmt"
)

// Time is simulated time in picoseconds. Picoseconds keep bandwidth
// arithmetic exact enough for 450 GB/s-class links (0.45 bytes/ps) while an
// int64 still spans ~106 days of simulated time.
type Time int64

// Convenient time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// String renders a Time in the most readable unit.
func (t Time) String() string {
	switch {
	case t == 0:
		return "0s"
	case t%Millisecond == 0 || t >= 100*Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= 100*Microsecond:
		return fmt.Sprintf("%.2fus", float64(t)/float64(Microsecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t >= Nanosecond:
		return fmt.Sprintf("%.2fns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// Microseconds converts to float64 microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Milliseconds converts to float64 milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// Seconds converts to float64 seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// DurationForBytes returns the serialization time of size bytes on a
// resource with the given bandwidth in bytes per second. It rounds up so a
// nonzero transfer always takes at least one picosecond.
func DurationForBytes(size int64, bytesPerSecond float64) Time {
	if size <= 0 || bytesPerSecond <= 0 {
		return 0
	}
	ps := float64(size) / bytesPerSecond * float64(Second)
	d := Time(ps)
	if d < 1 {
		d = 1
	}
	return d
}

// DurationForFlops returns the execution time of a floating-point workload
// on a resource with the given throughput in FLOP/s. Non-positive inputs
// yield zero. Like DurationForBytes it truncates toward zero picoseconds,
// matching a direct Time(flops/rate*Second) conversion bit-for-bit.
func DurationForFlops(flops, flopsPerSecond float64) Time {
	if flops <= 0 || flopsPerSecond <= 0 {
		return 0
	}
	return Time(flops / flopsPerSecond * float64(Second))
}

// Scale stretches a duration by a dimensionless factor (jitter, slowdown,
// overlap ratios), truncating the sub-picosecond remainder.
func Scale(d Time, factor float64) Time {
	return Time(float64(d) * factor)
}

// FromPicoseconds converts a float picosecond count (e.g. a metrics gauge
// value) back into a Time, truncating toward zero.
func FromPicoseconds(ps float64) Time {
	return Time(ps)
}

type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before orders events by timestamp, breaking ties by scheduling sequence
// so same-instant events run in the order they were scheduled.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// initialHeapCap is the event queue's starting capacity. Even the smallest
// real runs (one sub-layer at coarse granularity) schedule tens of
// thousands of events, so starting at a few hundred slots skips the
// pointless 1→2→4→... growth ladder without bloating trivial tests.
const initialHeapCap = 512

// eventHeap is a 4-ary min-heap specialized to event. The event loop is
// the simulator's hottest path: a concrete element type avoids the
// interface{} box/unbox and indirect Less/Swap calls of container/heap,
// and the 4-ary layout halves the tree depth so pops touch fewer cache
// lines than a binary heap over the same pending set.
//
// Layout: children of node i are 4i+1..4i+4, parent of i is (i-1)/4.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

// push inserts an event, growing the backing array geometrically (doubling)
// so n pushes cost O(log n) allocations regardless of starting size.
func (h *eventHeap) push(e event) {
	if len(h.a) == cap(h.a) {
		c := cap(h.a) * 2
		if c < initialHeapCap {
			c = initialHeapCap
		}
		grown := make([]event, len(h.a), c)
		copy(grown, h.a)
		h.a = grown
	}
	h.a = append(h.a, e)
	h.siftUp(len(h.a) - 1)
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() event {
	top := h.a[0]
	n := len(h.a) - 1
	h.a[0] = h.a[n]
	h.a[n] = event{} // release the fn reference for the GC
	h.a = h.a[:n]
	if n > 1 {
		h.siftDown(0)
	}
	return top
}

func (h *eventHeap) siftUp(i int) {
	e := h.a[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(&h.a[parent]) {
			break
		}
		h.a[i] = h.a[parent]
		i = parent
	}
	h.a[i] = e
}

func (h *eventHeap) siftDown(i int) {
	n := len(h.a)
	e := h.a[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if h.a[c].before(&h.a[best]) {
				best = c
			}
		}
		if !h.a[best].before(&e) {
			break
		}
		h.a[i] = h.a[best]
		i = best
	}
	h.a[i] = e
}

// Engine is a deterministic discrete-event scheduler. Events scheduled for
// the same instant run in scheduling order, so simulations are
// bit-reproducible across runs and platforms.
type Engine struct {
	now   Time
	seq   uint64
	steps uint64
	heap  eventHeap
	limit uint64 // optional hard step limit guard; 0 disables

	// Progress heartbeat: fn runs every progEvery executed events.
	progEvery uint64
	progress  func(now Time, steps uint64)
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports current simulated time.
func (e *Engine) Now() Time { return e.now }

// Steps reports how many events have been executed so far.
func (e *Engine) Steps() uint64 { return e.steps }

// SetStepLimit installs a guard that aborts Run with a panic after n events.
// It exists to turn accidental event loops in tests into immediate failures
// rather than hangs. Zero disables the guard.
func (e *Engine) SetStepLimit(n uint64) { e.limit = n }

// SetProgress installs a heartbeat callback invoked every `every` executed
// events (0 disables). The callback sees the current simulated time and
// total executed events; the CLI uses it for -v progress logging.
func (e *Engine) SetProgress(every uint64, fn func(now Time, steps uint64)) {
	if every == 0 || fn == nil {
		e.progEvery, e.progress = 0, nil
		return
	}
	e.progEvery, e.progress = every, fn
}

// At schedules fn to run at absolute time t. Scheduling in the past is a
// programming error and panics, since it would silently reorder causality.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	e.seq++
	e.heap.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d after the current time. Negative delays clamp
// to zero.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	e.At(e.now+d, fn)
}

// Run executes events until the queue is empty and returns the final
// simulated time.
func (e *Engine) Run() Time {
	for e.heap.len() > 0 {
		ev := e.heap.pop()
		e.now = ev.at
		e.steps++
		if e.limit > 0 && e.steps > e.limit {
			panic(fmt.Sprintf("sim: step limit %d exceeded at t=%v", e.limit, e.now))
		}
		if e.progEvery > 0 && e.steps%e.progEvery == 0 {
			e.progress(e.now, e.steps)
		}
		ev.fn()
	}
	return e.now
}

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return e.heap.len() }
