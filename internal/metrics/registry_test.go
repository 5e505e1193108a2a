package metrics

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestRegistryCountersGaugesIdempotent(t *testing.T) {
	r := NewRegistry()
	loads := int64(3)
	r.CounterFunc("nvswitch.plane0.merged_loads", func() int64 { return 0 })
	r.CounterFunc("nvswitch.plane0.merged_loads", func() int64 { return loads })
	r.GaugeFunc("sim.steps", func() float64 { return 7 })
	h := r.Hist("gpu.tb_us")
	if r.Hist("gpu.tb_us") != h {
		t.Fatal("Hist must be idempotent per name")
	}
	if len(r.items) != 3 {
		t.Fatalf("len = %d, want 3", len(r.items))
	}
	loads = 5
	m, _ := r.Snapshot().Get("nvswitch.plane0.merged_loads")
	if m.Kind != "counter" || m.Value != 5 {
		t.Fatalf("counter = %+v, want the replacing function's live value 5", m)
	}
}

func TestRegistryKindCollisionPanics(t *testing.T) {
	for name, second := range map[string]func(r *Registry){
		"gauge over counter": func(r *Registry) { r.GaugeFunc("x", func() float64 { return 0 }) },
		"hist over counter":  func(r *Registry) { r.Hist("x") },
	} {
		r := NewRegistry()
		r.CounterFunc("x", func() int64 { return 0 })
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: kind collision must panic", name)
				}
			}()
			second(r)
		}()
	}
}

func TestSnapshotSortedAndQueryable(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("b.two", func() int64 { return 2 })
	r.CounterFunc("a.one", func() int64 { return 1 })
	r.GaugeFunc("c.three", func() float64 { return 3 })
	s := r.Snapshot()
	if s.Len() != 3 {
		t.Fatalf("snapshot len = %d", s.Len())
	}
	names := []string{s.Metrics[0].Name, s.Metrics[1].Name, s.Metrics[2].Name}
	if names[0] != "a.one" || names[1] != "b.two" || names[2] != "c.three" {
		t.Fatalf("snapshot not sorted: %v", names)
	}
	if s.Value("b.two") != 2 || s.Value("c.three") != 3 {
		t.Fatalf("values wrong: %+v", s.Metrics)
	}
	if s.Metrics[1].Kind != "counter" || s.Metrics[2].Kind != "gauge" {
		t.Fatalf("kinds wrong: %+v", s.Metrics)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on missing name must report false")
	}
}

func TestHistStats(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("nvswitch.session_lifetime_us")
	h.Observe(2)
	for i := 0; i < 3; i++ {
		h.Observe(10)
	}
	h.Observe(math.NaN()) // ignored
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	want := (2.0 + 10.0*3) / 4.0
	if math.Abs(h.Mean()-want) > 1e-12 {
		t.Fatalf("mean = %v, want %v", h.Mean(), want)
	}
	if h.Max() != 10 {
		t.Fatalf("max = %v, want 10", h.Max())
	}
	m := h.snap("x")
	if m.Kind != "hist" || m.Count != 4 || m.Min != 2 || m.Max != 10 {
		t.Fatalf("snapshot = %+v", m)
	}
	var totalW float64
	for _, b := range m.Buckets {
		totalW += b.Weight
	}
	if totalW != 4 {
		t.Fatalf("bucket counts sum to %v, want 4", totalW)
	}
}

func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{0, 0}, {0.5, 0}, {1, 0}, {1.5, 1}, {2, 1}, {2.1, 2}, {4, 2}, {5, 3},
		{1 << 20, 20}, {math.MaxFloat64, histBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Fatalf("bucketOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}

	// 100 observations of the value i+1 (1..100): every
	// quantile is derivable by hand. Values spread over buckets
	// (0,1], (1,2], (2,4], ... so interpolation is exercised.
	for i := 0; i < 100; i++ {
		h.Observe(float64(i + 1))
	}
	if got := h.Quantile(0); got != 1 {
		t.Errorf("q=0: got %v, want min 1", got)
	}
	if got := h.Quantile(1); got != 100 {
		t.Errorf("q=1: got %v, want max 100", got)
	}
	// The bucket estimate must land within one power-of-two bucket of the
	// exact order statistic.
	cases := []struct {
		q       float64
		exact   float64
		loosest float64 // allowed multiplicative error (one bucket)
	}{
		{0.50, 50, 2}, {0.95, 95, 2}, {0.99, 99, 2},
	}
	for _, c := range cases {
		got := h.Quantile(c.q)
		if got < c.exact/c.loosest || got > c.exact*c.loosest {
			t.Errorf("q=%v: got %v, want within %vx of %v", c.q, got, c.loosest, c.exact)
		}
	}
	// Monotonicity across the full range.
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("Quantile not monotone: q=%v gave %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestHistQuantileSingleValue(t *testing.T) {
	h := newHist()
	for i := 0; i < 3; i++ {
		h.Observe(42)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 42 {
			t.Errorf("q=%v: got %v, want 42 (all mass at one value, clamped to min/max)", q, got)
		}
	}
}

func TestHistSnapshotCarriesQuantiles(t *testing.T) {
	h := newHist()
	for i := 0; i < 100; i++ {
		h.Observe(float64(i + 1))
	}
	m := h.snap("serve.e2e_us")
	if m.P50 != h.Quantile(0.50) || m.P95 != h.Quantile(0.95) || m.P99 != h.Quantile(0.99) {
		t.Fatalf("snapshot quantiles %v/%v/%v disagree with accessors", m.P50, m.P95, m.P99)
	}
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"p50"`, `"p95"`, `"p99"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("metric JSON missing %s: %s", key, data)
		}
	}
}

func TestSnapshotJSONRoundtrip(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("noc.up.wire_bytes", func() int64 { return 1024 })
	r.Hist("gpu.tb_us").Observe(3)
	var sb strings.Builder
	if err := r.Snapshot().WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var s Snapshot
	if err := json.Unmarshal([]byte(sb.String()), &s); err != nil {
		t.Fatalf("snapshot JSON invalid: %v\n%s", err, sb.String())
	}
	if s.Value("noc.up.wire_bytes") != 1024 {
		t.Fatalf("roundtrip value = %v", s.Value("noc.up.wire_bytes"))
	}
	m, ok := s.Get("gpu.tb_us")
	if !ok || m.Kind != "hist" || m.Count != 1 {
		t.Fatalf("hist roundtrip = %+v ok=%v", m, ok)
	}
}

func TestHistHotPathAllocatesNothing(t *testing.T) {
	h := NewRegistry().Hist("hot_hist")
	if allocs := testing.AllocsPerRun(1000, func() {
		h.Observe(2)
		h.Observe(5)
	}); allocs != 0 {
		t.Fatalf("Hist.Observe allocates %v/op, want 0", allocs)
	}
}
