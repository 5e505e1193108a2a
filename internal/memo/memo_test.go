package memo

import (
	"errors"
	"sync"
	"testing"
)

// TestCacheHitMiss pins the accounting contract the CLI and the
// fewer-runs assertion rely on: first lookup misses and computes, repeats
// hit without recomputing, distinct keys stay distinct.
func TestCacheHitMiss(t *testing.T) {
	c := NewCache()
	calls := 0
	fn := func() (Entry, error) {
		calls++
		return Entry{Strategy: "X", UpBytes: int64(calls)}, nil
	}
	a, err := c.Do(1, fn)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Do(1, fn)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times for one key, want 1", calls)
	}
	if a.Strategy != b.Strategy || a.UpBytes != b.UpBytes {
		t.Fatalf("hit returned a different entry: %+v vs %+v", a, b)
	}
	if _, err := c.Do(2, fn); err != nil {
		t.Fatal(err)
	}
	if calls != 2 {
		t.Fatalf("distinct key did not compute: %d calls", calls)
	}
	if c.Hits() != 1 || c.Misses() != 2 || c.Lookups() != 3 {
		t.Fatalf("accounting hits=%d misses=%d lookups=%d, want 1/2/3",
			c.Hits(), c.Misses(), c.Lookups())
	}
	if c.Len() != 2 {
		t.Fatalf("Len=%d, want 2", c.Len())
	}
}

// TestCacheCachesErrors pins that a failing point fails once: the inputs
// are the key, so re-simulating would fail identically.
func TestCacheCachesErrors(t *testing.T) {
	c := NewCache()
	boom := errors.New("boom")
	calls := 0
	fail := func() (Entry, error) { calls++; return Entry{}, boom }
	if _, err := c.Do(7, fail); !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
	if _, err := c.Do(7, fail); !errors.Is(err, boom) {
		t.Fatalf("cached err=%v, want boom", err)
	}
	if calls != 1 {
		t.Fatalf("failing fn ran %d times, want 1", calls)
	}
}

// TestNilCacheComputes pins the -no-memo degradation: a nil cache is a
// pass-through, not a panic.
func TestNilCacheComputes(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 0; i < 2; i++ {
		e, err := c.Do(1, func() (Entry, error) { calls++; return Entry{UpBytes: 9}, nil })
		if err != nil || e.UpBytes != 9 {
			t.Fatalf("nil cache: entry=%+v err=%v", e, err)
		}
	}
	if calls != 2 {
		t.Fatalf("nil cache memoized: %d calls, want 2", calls)
	}
}

// TestCacheSingleFlight pins the dedup contract that makes "strictly fewer
// runs" hold at any worker count: concurrent lookups of one cold key run
// the function exactly once, and every caller gets its value.
func TestCacheSingleFlight(t *testing.T) {
	c := NewCache()
	const workers = 16
	var mu sync.Mutex
	calls := 0
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			e, err := c.Do(42, func() (Entry, error) {
				mu.Lock()
				calls++
				mu.Unlock()
				return Entry{DownBytes: 5}, nil
			})
			if err != nil || e.DownBytes != 5 {
				t.Errorf("entry=%+v err=%v", e, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if calls != 1 {
		t.Fatalf("cold key computed %d times under contention, want 1", calls)
	}
	if c.Lookups() != workers || c.Misses() != 1 || c.Hits() != workers-1 {
		t.Fatalf("accounting lookups=%d misses=%d hits=%d, want %d/1/%d",
			c.Lookups(), c.Misses(), c.Hits(), workers, workers-1)
	}
	if c.Len() != 1 {
		t.Fatalf("Len=%d after one contended key, want 1", c.Len())
	}
}

// TestCachePanicAbandonsSlot pins the failure mode: a panicking compute
// must not wedge the slot — the panic propagates and a later lookup
// recomputes.
func TestCachePanicAbandonsSlot(t *testing.T) {
	c := NewCache()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic did not propagate")
			}
		}()
		_, _ = c.Do(3, func() (Entry, error) { panic("kaboom") })
	}()
	if c.Len() != 0 {
		t.Fatalf("Len=%d after a panicked compute, want 0", c.Len())
	}
	e, err := c.Do(3, func() (Entry, error) { return Entry{UpBytes: 1}, nil })
	if err != nil || e.UpBytes != 1 {
		t.Fatalf("slot wedged after panic: entry=%+v err=%v", e, err)
	}
	if c.Len() != 1 {
		t.Fatalf("Len=%d after the recompute, want 1", c.Len())
	}
}
