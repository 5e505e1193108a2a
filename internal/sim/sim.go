// Package sim provides the discrete-event simulation engine used by every
// other subsystem in the CAIS reproduction: a deterministic event queue
// (a 4-ary heap beside delay-keyed FIFO lanes) with picosecond resolution,
// a splitmix64-based reproducible RNG, serialized resources for
// bandwidth/occupancy accounting, and countdown latches for barrier
// modeling.
//
// All simulated components (GPUs, links, switches, runtimes) share one
// Engine and communicate exclusively by scheduling events on it, so a whole
// multi-GPU system simulation is single-threaded and bit-reproducible.
package sim

import (
	"fmt"
	"math/bits"

	"cais/internal/pool"
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

// laneBits sets the number of delay lanes, 1<<laneBits; the live mask
// below holds one bit per lane.
const laneBits = 4

// laneSlot picks the lane for delay d by multiplicative (Fibonacci)
// hashing, so the simulator's recurring delays spread over the lanes even
// though most are round numbers of picoseconds.
func laneSlot(d Time) int {
	return int(uint64(d) * 0x9E3779B97F4A7C15 >> (64 - laneBits))
}

// lane is a FIFO of pending events that were all scheduled with the same
// delay d. Because now never decreases and seq only grows, events that
// share a delay arrive in (at, seq) order, so a lane stays sorted without
// a single comparison. The lane's earliest event lives in Engine.heads;
// ring holds the rest.
type lane struct {
	ring pool.Ring[event]
	d    Time // delay of every queued event; kept while the lane is empty
	miss Time // delay of the slot's latest miss
}

// Engine is a deterministic discrete-event scheduler. Events scheduled for
// the same instant run in scheduling order, so simulations are
// bit-reproducible across runs and platforms.
//
// Pending events wait either in the heap or in one of the delay lanes.
// Run always takes the smaller (at, seq) of the heap top and the live lane
// heads, so events leave in exactly the order one heap would give.
type Engine struct {
	now   Time
	seq   uint64
	steps uint64
	heap  eventHeap
	limit uint64 // optional hard step limit guard; 0 disables

	lanes [1 << laneBits]lane
	heads [1 << laneBits]event // each live lane's earliest event
	live  uint16               // bit i set: lane i holds events
	first int                  // the live lane with the earliest head

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
	ev := event{at: t, seq: e.seq, fn: fn}
	d := t - e.now
	i := laneSlot(d)
	l, bit := &e.lanes[i], uint16(1)<<i
	if l.d != d {
		// A lane changes its delay only while empty, and only for a delay
		// that missed its slot twice running: one-off delays stay in the
		// heap instead of evicting a recurring delay from the lane.
		if e.live&bit != 0 || l.miss != d {
			l.miss = d
			e.heap.push(ev)
			return
		}
		l.d = d
	}
	if e.live&bit == 0 {
		if e.live == 0 || ev.before(&e.heads[e.first]) {
			e.first = i
		}
		e.live |= bit
		e.heads[i] = ev
		return
	}
	l.ring.PushBack(ev)
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
	for e.live != 0 || e.heap.len() > 0 {
		var ev event
		if e.live == 0 || e.heap.len() > 0 && e.heap.a[0].before(&e.heads[e.first]) {
			ev = e.heap.pop()
		} else {
			ev = e.popFirstLane()
		}
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

// popFirstLane removes and returns the earliest lane head, promotes the
// next event of its lane, and finds the new earliest live lane.
func (e *Engine) popFirstLane() event {
	i := e.first
	ev := e.heads[i]
	if l := &e.lanes[i]; l.ring.Len() > 0 {
		e.heads[i] = l.ring.PopFront()
	} else {
		e.heads[i] = event{} // release the fn reference for the GC
		e.live &^= 1 << i
	}
	m := e.live
	if m == 0 {
		return ev
	}
	best := bits.TrailingZeros16(m)
	at, seq := e.heads[best].at, e.heads[best].seq
	for m &= m - 1; m != 0; m &= m - 1 {
		j := bits.TrailingZeros16(m)
		if h := &e.heads[j]; h.at < at || h.at == at && h.seq < seq {
			best, at, seq = j, h.at, h.seq
		}
	}
	e.first = best
	return ev
}
