package experiments

import (
	"testing"

	"cais/internal/attrib"
	"cais/internal/memo"
)

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
