package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"cais/internal/memo"
	"cais/internal/metrics"
)

// TestServingDeterminism is the serving study's ladder: it renders its
// quick.txt section at worker counts 1, 2 and GOMAXPROCS, with a fresh memo
// cache or none.
func TestServingDeterminism(t *testing.T) {
	for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		for _, memoized := range []bool{false, true} {
			c := Quick()
			c.Workers = workers
			if memoized {
				c.Memo = memo.NewCache()
			}
			got, err := Run("serving", c)
			if err != nil {
				t.Fatal(err)
			}
			checkSection(t, fmt.Sprintf("workers=%d memo=%v", workers, memoized), "serving", got)
		}
	}
}

// TestServingMemoHits pins the anchor-sharing guarantee: quantized cost
// anchors repeat across arrival rates, strategies only differ per spec, so a
// serving run over a shared cache must hit far more often than it simulates.
func TestServingMemoHits(t *testing.T) {
	c := Quick()
	c.Workers = 1
	c.Memo = memo.NewCache()
	if _, err := Run("serving", c); err != nil {
		t.Fatal(err)
	}
	if c.Memo.Hits() == 0 {
		t.Fatal("serving run recorded no cache hits; anchors are keying differently across points")
	}
	if c.Memo.Misses() >= c.Memo.Lookups() {
		t.Fatalf("misses (%d) not strictly fewer than lookups (%d)", c.Memo.Misses(), c.Memo.Lookups())
	}
	t.Logf("serving memo: %d lookups, %d hits, %d simulated", c.Memo.Lookups(), c.Memo.Hits(), c.Memo.Misses())
}

// TestServingRateAndSLOOverrides checks the caissim -arrival-rate and -slo
// knobs: a single rate collapses the sweep (and anchors the fault study) and
// the SLO bound lands in the rendered header.
func TestServingRateAndSLOOverrides(t *testing.T) {
	c := cached(t)
	c.ServingRate = 500
	c.ServingSLOMs = 7
	r, err := Serving(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rates) != 1 || r.Rates[0] != 500 || r.FaultRate != 500 {
		t.Errorf("rates = %v faultRate = %g, want single 500", r.Rates, r.FaultRate)
	}
	if want := 4; len(r.Rows) != want {
		t.Errorf("sweep rows = %d, want %d (one per strategy)", len(r.Rows), want)
	}
	out := r.Render()
	if !strings.Contains(out, "SLO: E2E <= 7.000ms") {
		t.Errorf("rendered header missing the 7ms SLO bound:\n%s", out)
	}
	if !strings.Contains(out, "500 rps") {
		t.Errorf("fault table header missing the 500 rps rate:\n%s", out)
	}
}

// TestServingRecordsMetrics checks the -metrics-json path: the sweep's
// per-request latencies land in Config.Metrics with the expected counts
// (rate sweep only — faulted runs stay out of the distributions).
func TestServingRecordsMetrics(t *testing.T) {
	c := cached(t)
	c.Metrics = metrics.NewRegistry()
	r, err := Serving(c)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, row := range r.Rows {
		want += row.Sum.Requests
	}
	snap := c.Metrics.Snapshot()
	m, ok := snap.Get("serve.e2e_us")
	if !ok {
		t.Fatal("serve.e2e_us missing from the registry snapshot")
	}
	if int(m.Count) != want {
		t.Errorf("serve.e2e_us count = %d, want %d (sweep rows only)", m.Count, want)
	}
	if m.P99 < m.P50 {
		t.Errorf("serve.e2e_us p99 %v < p50 %v", m.P99, m.P50)
	}
}

// TestServingHealthyAnchorsFaultTable checks the fold: every strategy's
// healthy fault-row is its own baseline (RelGoodput exactly 1) and the
// healthy goodput matches the sweep row at the fault-study rate.
func TestServingHealthyAnchorsFaultTable(t *testing.T) {
	c := cached(t)
	r, err := Serving(c)
	if err != nil {
		t.Fatal(err)
	}
	sweepAtFaultRate := map[string]float64{}
	for _, row := range r.Rows {
		if row.Rate == r.FaultRate {
			sweepAtFaultRate[row.Strategy] = row.Sum.GoodputRPS
		}
	}
	healthy := 0
	for _, row := range r.FaultRows {
		if row.Scenario != "healthy" {
			continue
		}
		healthy++
		if row.RelGoodput != 1 {
			t.Errorf("%s healthy RelGoodput = %g, want 1", row.Strategy, row.RelGoodput)
		}
		if got, want := row.Sum.GoodputRPS, sweepAtFaultRate[row.Strategy]; got != want {
			t.Errorf("%s healthy goodput %g != sweep goodput %g at rate %g", row.Strategy, got, want, r.FaultRate)
		}
	}
	if healthy != len(r.Strategies) {
		t.Errorf("healthy fault rows = %d, want %d", healthy, len(r.Strategies))
	}
}
