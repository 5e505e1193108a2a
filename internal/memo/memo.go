// Package memo is the cross-sweep simulation-point cache: a
// content-addressed map from the canonical digest of a fully-resolved
// simulation point (hardware, strategy spec, workload, run options, fault
// schedule) to its value-type result. Figure drivers that share anchor
// points — the TP-NVLS / CAIS runs repeated by Fig. 11/12/15/16 and
// Table 2 — simulate each point once per `caissim -experiment all`
// invocation and serve the rest from the cache.
//
// The contract that keeps memoized output byte-identical to cold runs:
//
//   - Keys cover every input that can change the simulated result — and
//     nothing else. A key is a reflective digest of the point's value
//     types (hardware, strategy spec, workload, options, fault schedule)
//     that walks every field, so a field added to any of them is keyed
//     without further work. Fields tagged `memo:"-"` are left out; the
//     func and pointer ones are observers, and Cacheable sends runs that
//     set them around the cache. Worker count is excluded by construction
//     (the key builders never see it): a point's result is independent of
//     which goroutine computes it (see internal/sweep's determinism
//     contract).
//   - Defaults are resolved before hashing, so a zero value and its
//     explicit default hash identically (nil vs empty fault schedule).
//   - Entries are plain values (times, summaries, telemetry snapshots):
//     the run's Machine is cleared before an entry is stored, so no
//     machine, engine or other live state is retained and a cache hit
//     cannot observe or perturb a later run. Callers must treat the
//     telemetry snapshot, timeline and attribution report as read-only —
//     they are shared across hits.
//
// The cache is the one component outside internal/sweep that parallel
// workers share, so it is mutex-guarded, with single-flight deduplication:
// when two workers race to the same cold key, one simulates and the other
// waits, keeping "strictly fewer runs with memoization on" true at any
// worker count.
package memo

import (
	"sync"
	"sync/atomic"

	"cais/internal/core"
	"cais/internal/metrics"
)

// Entry is the result of one simulation point with its Machine cleared:
// everything the experiment drivers consume, nothing tied to the run's
// live objects.
type Entry = core.Result

// cell is one cache slot. done is closed when the in-flight computation
// finishes; ready distinguishes a populated cell from an abandoned one.
type cell struct {
	done  chan struct{}
	ready bool
	val   Entry
	err   error
}

// Cache is a content-addressed simulation-point cache, safe for use from
// parallel sweep workers.
type Cache struct {
	mu      sync.Mutex
	cells   map[uint64]*cell
	entries int // populated cells, counted under mu as Do marks them ready

	hits     atomic.Int64 // lookups served from a populated cell
	misses   atomic.Int64 // lookups that simulated the point
	inflight atomic.Int64 // lookups that waited on another worker
}

// NewCache returns an empty cache.
func NewCache() *Cache {
	return &Cache{cells: make(map[uint64]*cell)}
}

// Hits reports lookups served from the cache (including waits on a
// concurrent first run).
func (c *Cache) Hits() int64 { return c.hits.Load() + c.inflight.Load() }

// Misses reports lookups that had to simulate the point.
func (c *Cache) Misses() int64 { return c.misses.Load() }

// Lookups reports total Do calls.
func (c *Cache) Lookups() int64 { return c.Hits() + c.Misses() }

// Len reports populated entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.entries
}

// RegisterMetrics exposes the cache's counters in a metrics registry
// (memo.* gauges in -metrics-json). GaugeFunc reads at snapshot time, so
// one registration at startup reports end-of-sweep totals.
func (c *Cache) RegisterMetrics(reg *metrics.Registry) {
	if c == nil || reg == nil {
		return
	}
	reg.GaugeFunc("memo.hits", func() float64 { return float64(c.hits.Load()) })
	reg.GaugeFunc("memo.misses", func() float64 { return float64(c.misses.Load()) })
	reg.GaugeFunc("memo.inflight_waits", func() float64 { return float64(c.inflight.Load()) })
	reg.GaugeFunc("memo.entries", func() float64 { return float64(c.Len()) })
}

// Do returns the entry for key, computing it with fn on first use. A nil
// cache always computes. Concurrent calls for the same cold key run fn
// once; the others block until it completes. Errors are cached like
// values (re-simulating a failing point would fail identically — the
// inputs are the key). If fn panics, the panic propagates and the slot is
// abandoned so waiters retry instead of wedging.
func (c *Cache) Do(key uint64, fn func() (Entry, error)) (Entry, error) {
	if c == nil {
		return fn()
	}
	for {
		c.mu.Lock()
		s, ok := c.cells[key]
		if ok {
			ready := s.ready
			c.mu.Unlock()
			if ready {
				c.hits.Add(1)
				return s.val, s.err
			}
			// In flight elsewhere: the channel close publishes val/err/ready
			// (happens-before), so no re-lock is needed after the wait.
			<-s.done
			if s.ready {
				c.inflight.Add(1)
				return s.val, s.err
			}
			// The computing worker panicked and abandoned the slot;
			// retry (we may become the new computing worker).
			continue
		}
		s = &cell{done: make(chan struct{})}
		c.cells[key] = s
		c.mu.Unlock()
		c.misses.Add(1)

		completed := false
		defer func() {
			if !completed {
				// fn panicked: remove the slot and release waiters so the
				// panic (which sweep.Map re-raises deterministically) is
				// not compounded by a deadlock.
				c.mu.Lock()
				delete(c.cells, key)
				c.mu.Unlock()
				close(s.done)
			}
		}()
		val, err := fn()
		completed = true
		c.mu.Lock()
		s.val, s.err, s.ready = val, err, true
		c.entries++
		c.mu.Unlock()
		close(s.done)
		return val, err
	}
}
