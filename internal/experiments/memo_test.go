package experiments

import (
	"runtime"
	"testing"

	"cais/internal/attrib"
	"cais/internal/memo"
)

// memoExperiments are drivers sharing anchor points: fig13b's
// coordination-ablation endpoints (CAIS and CAIS-w/o-Coord with an
// unlimited table on L2) reappear as the resilience study's healthy
// waiting-time anchors, and resilience itself re-runs each strategy's
// healthy point once per fault family. Together they must produce cache
// hits, and each must render byte-identically with the cache hot or cold.
// Table II rides along to cover the RunLayers key path. Fig. 16 joins the
// set: its utilization timeline is a replayable memo artifact
// (Options.UtilBin). The
// serving study joins for its anchor shapes: quantized (strategy, token)
// anchors repeat across arrival rates and fault scenarios, so the driver
// must both hit the shared cache and render byte-identically without one.
var memoExperiments = []string{"fig13b", "fig16", "table2", "resilience", "serving"}

// runAll renders the memo-sensitive experiments under one configuration
// and returns the concatenated output.
func runAll(t *testing.T, c Config) string {
	t.Helper()
	var out string
	for _, id := range memoExperiments {
		s, err := Run(id, c)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out += s
	}
	return out
}

// TestMemoStrictlyFewerRuns pins the tentpole's run-count guarantee: with
// a shared cache, an `-experiment all`-style invocation performs strictly
// fewer simulations than lookups — duplicate points across figure drivers
// simulate once.
func TestMemoStrictlyFewerRuns(t *testing.T) {
	c := Quick()
	c.Workers = 1
	c.Memo = memo.NewCache()
	runAll(t, c)
	if c.Memo.Lookups() == 0 {
		t.Fatal("no lookups recorded; drivers are not consulting the cache")
	}
	if c.Memo.Hits() == 0 {
		t.Fatalf("no cache hits across %v: shared anchor points are keying differently", memoExperiments)
	}
	if c.Memo.Misses() >= c.Memo.Lookups() {
		t.Fatalf("misses (%d) not strictly fewer than lookups (%d)", c.Memo.Misses(), c.Memo.Lookups())
	}
	t.Logf("memo: %d lookups, %d hits, %d simulated", c.Memo.Lookups(), c.Memo.Hits(), c.Memo.Misses())
}

// TestMemoOutputByteIdentical pins the correctness half of the contract:
// rendered tables are byte-identical with memoization on and off, and —
// with it on — at worker counts 1, 2 and GOMAXPROCS (the parallel
// determinism suite's ladder). A cache hit must be indistinguishable from
// a cold simulation in every output byte.
func TestMemoOutputByteIdentical(t *testing.T) {
	cold := Quick()
	cold.Workers = 1
	ref := runAll(t, cold)

	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		c := Quick()
		c.Workers = workers
		c.Memo = memo.NewCache()
		if got := runAll(t, c); got != ref {
			t.Errorf("memoized output at workers=%d differs from cold sequential run", workers)
		}
	}

	// A second pass over one shared cache is the all-hits extreme: every
	// point served from memory, still byte-identical.
	c := Quick()
	c.Workers = 1
	c.Memo = memo.NewCache()
	runAll(t, c)
	missesAfterFirst := c.Memo.Misses()
	if got := runAll(t, c); got != ref {
		t.Error("all-hits re-render differs from cold run")
	}
	if c.Memo.Misses() != missesAfterFirst {
		t.Errorf("re-render simulated %d new points, want 0", c.Memo.Misses()-missesAfterFirst)
	}
}

// TestFig16MemoReplay pins the tentpole's replayable-timeline guarantee in
// isolation: Fig. 16 consumes a binned utilization timeline per point, so a
// second regeneration over a shared cache must simulate NOTHING — every
// timeline replays from its memo entry — and still render byte-identically.
func TestFig16MemoReplay(t *testing.T) {
	c := Quick()
	c.Workers = 1
	c.Memo = memo.NewCache()
	first, err := Run("fig16", c)
	if err != nil {
		t.Fatal(err)
	}
	misses := c.Memo.Misses()
	if misses == 0 {
		t.Fatal("cold fig16 run simulated nothing; memo wiring is broken")
	}
	second, err := Run("fig16", c)
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("memo-hit fig16 output differs from cold run")
	}
	if c.Memo.Misses() != misses {
		t.Errorf("second fig16 run simulated %d new points, want 0 (timeline did not replay)",
			c.Memo.Misses()-misses)
	}
	if c.Memo.Hits() == 0 {
		t.Error("second fig16 run recorded no cache hits")
	}
}

// TestAttributionReplaysFromMemo checks the other replayable artifact:
// attribution reports cached on a miss must replay on hits with
// byte-identical aggregate output (cold cache vs fully hot cache).
func TestAttributionReplaysFromMemo(t *testing.T) {
	c := Quick()
	c.Workers = 1
	c.Memo = memo.NewCache()
	c.Attrib = attrib.NewAggregator()
	if _, err := Run("fig13b", c); err != nil {
		t.Fatal(err)
	}
	cold := c.Attrib.Render()
	misses := c.Memo.Misses()

	c.Attrib = attrib.NewAggregator()
	if _, err := Run("fig13b", c); err != nil {
		t.Fatal(err)
	}
	if c.Memo.Misses() != misses {
		t.Errorf("hot re-run simulated %d new points, want 0", c.Memo.Misses()-misses)
	}
	if hot := c.Attrib.Render(); hot != cold {
		t.Error("attribution from memo hits differs from cold-run attribution")
	}
}

// TestFig14SharesAblationPoints: the merge-table size is a hardware field,
// so Fig. 14's 40 KB points key like the hardware default and are the same
// simulations as the CAIS sideband-on and CAIS-w/o-Coord LRU ablation
// points. With one cache, fig14 at quick fidelity simulates only its four
// other points.
func TestFig14SharesAblationPoints(t *testing.T) {
	c := Quick()
	c.Workers = 1
	c.Memo = memo.NewCache()
	for _, id := range []string{"ablation-eviction", "ablation-sideband"} {
		if _, err := Run(id, c); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	before := c.Memo.Misses()
	if _, err := Run("fig14", c); err != nil {
		t.Fatal(err)
	}
	if got := c.Memo.Misses() - before; got != 4 {
		t.Fatalf("fig14 simulated %d new points after the ablations, want 4", got)
	}
}
