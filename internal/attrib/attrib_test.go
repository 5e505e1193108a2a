package attrib

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"slices"
	"testing"

	"cais/internal/kernel"
	"cais/internal/machine"
	"cais/internal/sim"
)

// --- interval machinery -------------------------------------------------

func TestMergeCoalesces(t *testing.T) {
	iv := []interval{{10, 20}, {0, 5}, {15, 30}, {5, 7}, {40, 50}}
	got := merge(iv)
	want := []interval{{0, 7}, {10, 30}, {40, 50}}
	if len(got) != len(want) {
		t.Fatalf("merge: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge[%d]: got %v, want %v", i, got[i], want[i])
		}
	}
}

// TestUnionMatchesMerge holds fill's linear union to the sort-based merge
// on random merged lists: mutually disjoint pairs, as fill passes them
// (the fresh claims never overlap what is covered, but may touch it), and
// overlapping pairs.
func TestUnionMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	randomMerged := func() []interval {
		var iv []interval
		for n := rng.Intn(12); n > 0; n-- {
			s := sim.Time(rng.Intn(200))
			iv = append(iv, interval{s, s + 1 + sim.Time(rng.Intn(20))})
		}
		return merge(iv)
	}
	for trial := 0; trial < 2000; trial++ {
		a, b := randomMerged(), randomMerged()
		if trial%2 == 0 {
			b = subtract(b, a)
		}
		want := merge(append(slices.Clone(a), b...))
		got := union(a, b)
		if !slices.Equal(got, want) {
			t.Fatalf("union(%v, %v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestSubtractDisjoint(t *testing.T) {
	a := []interval{{0, 100}}
	b := []interval{{10, 20}, {50, 60}}
	got := subtract(a, b)
	want := []interval{{0, 10}, {20, 50}, {60, 100}}
	if len(got) != len(want) {
		t.Fatalf("subtract: got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("subtract[%d]: got %v, want %v", i, got[i], want[i])
		}
	}
	if length(got)+length(b) != length(a) {
		t.Fatal("subtract must partition: |a-b| + |b| != |a| for b ⊆ a")
	}
}

// TestFillPartitionExact is the structural-exactness guarantee in
// miniature: overlapping bucket claims plus the queue-stall remainder must
// tile [0, elapsed) with no gap and no double count, in integer ticks.
func TestFillPartitionExact(t *testing.T) {
	const elapsed = sim.Time(1000)
	c := Component{Name: "gpu0", Class: ClassGPU}
	// Compute [100,400) overlaps SyncWait [300,600); FaultStall [550,700)
	// overlaps SyncWait. Priority order Compute > SyncWait > FaultStall.
	fill(&c, elapsed, []Bucket{Compute, SyncWait, FaultStall}, [][]interval{
		{{100, 400}},
		{{300, 600}},
		{{550, 700}},
	})
	if got := c.Buckets[Compute]; got != 300 {
		t.Errorf("compute: got %d, want 300", got)
	}
	if got := c.Buckets[SyncWait]; got != 200 { // [400,600): overlap ceded to compute
		t.Errorf("sync-wait: got %d, want 200", got)
	}
	if got := c.Buckets[FaultStall]; got != 100 { // [600,700): overlap ceded to sync
		t.Errorf("fault-stall: got %d, want 100", got)
	}
	if got := c.Buckets[QueueStall]; got != 400 {
		t.Errorf("queue-stall: got %d, want 400", got)
	}
	if c.Total() != elapsed {
		t.Fatalf("buckets sum to %d, want elapsed %d", c.Total(), elapsed)
	}
}

// --- critical path ------------------------------------------------------

func span(name string, kind kernel.Kind, wave int, start, end sim.Time) *machine.KernelSpan {
	return &machine.KernelSpan{Name: name, Kind: kind, Wave: wave, Start: start, End: end}
}

func TestCriticalPathChainsWaves(t *testing.T) {
	spans := []*machine.KernelSpan{
		span("gemm", kernel.KindGEMM, 1, 0, 100),
		span("ln", kernel.KindLN, 1, 0, 80), // not critical: earlier End
		span("comm", kernel.KindComm, 2, 120, 250),
	}
	path, shares := criticalPath(spans, 300)
	if len(path) != 2 {
		t.Fatalf("path length: got %d, want 2", len(path))
	}
	if path[0].Name != "gemm" || path[1].Name != "comm" {
		t.Fatalf("path: got %s -> %s, want gemm -> comm", path[0].Name, path[1].Name)
	}
	if path[1].Stall != 20 { // launch gap after wave 1 completed at 100
		t.Errorf("wave-2 stall: got %v, want 20", path[1].Stall)
	}
	var sum sim.Time
	for _, s := range shares {
		sum += s.Time
	}
	if sum != 300 {
		t.Fatalf("path shares sum to %v, want elapsed 300 (tail must land in launch-stall)", sum)
	}
}

// TestCriticalPathTieBreak pins the determinism rule: equal End times
// resolve to launch order, not to anything scheduling-dependent.
func TestCriticalPathTieBreak(t *testing.T) {
	spans := []*machine.KernelSpan{
		span("first", kernel.KindGEMM, 1, 0, 100),
		span("second", kernel.KindGEMM, 1, 10, 100),
	}
	path, _ := criticalPath(spans, 100)
	if len(path) != 1 || path[0].Name != "first" {
		t.Fatalf("tie must break to launch order, got %+v", path)
	}
}

func TestCriticalPathEmpty(t *testing.T) {
	path, shares := criticalPath(nil, 100)
	if path != nil || shares != nil {
		t.Fatalf("no spans must yield an empty path, got %v / %v", path, shares)
	}
}

// --- aggregation & export ----------------------------------------------

// syntheticReport builds a small, fully populated report by hand.
func syntheticReport(elapsed sim.Time) *Report {
	r := &Report{Elapsed: elapsed}
	g := Component{Name: "gpu0", Class: ClassGPU}
	fill(&g, elapsed, []Bucket{Compute, SyncWait, FaultStall},
		[][]interval{{{0, elapsed / 2}}, {{elapsed / 2, 3 * elapsed / 4}}, nil})
	p := Component{Name: "plane0", Class: ClassPlane}
	fill(&p, elapsed, []Bucket{Transit, Merge, FaultStall},
		[][]interval{{{0, elapsed / 4}}, {{elapsed / 4, elapsed / 2}}, nil})
	r.Components = []Component{g, p}
	r.Path, r.PathShare = criticalPath([]*machine.KernelSpan{
		span("gemm", kernel.KindGEMM, 1, 0, elapsed/2),
		span("comm", kernel.KindComm, 2, elapsed/2, elapsed),
	}, elapsed)
	return r
}

// TestAggregatorOrderIndependent: insertion order (the racy part under a
// parallel sweep) must not influence a single output byte.
func TestAggregatorOrderIndependent(t *testing.T) {
	r1, r2, r3 := syntheticReport(1000), syntheticReport(2000), syntheticReport(3000)
	a := NewAggregator()
	a.Add("fig/x", r1)
	a.Add("fig/y", r2)
	a.Add("fig/z", r3)
	b := NewAggregator()
	b.Add("fig/z", r3)
	b.Add("fig/x", r1)
	b.Add("fig/y", r2)
	if a.Render() != b.Render() {
		t.Error("Render depends on insertion order")
	}
	var ja, jb bytes.Buffer
	if err := a.WriteJSON(&ja); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&jb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja.Bytes(), jb.Bytes()) {
		t.Error("WriteJSON depends on insertion order")
	}
	var ca, cb bytes.Buffer
	if err := a.WriteChromeTrace(&ca); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteChromeTrace(&cb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca.Bytes(), cb.Bytes()) {
		t.Error("WriteChromeTrace depends on insertion order")
	}
}

func TestAggregatorNilSafe(t *testing.T) {
	var a *Aggregator
	a.Add("x", syntheticReport(10)) // must not panic
	if a.Len() != 0 {
		t.Fatal("nil aggregator must report zero points")
	}
	b := NewAggregator()
	b.Add("x", nil) // a run without attribution
	if b.Len() != 0 {
		t.Fatal("nil report must not be recorded")
	}
}

// TestChromeTraceDecodes checks the export is well-formed JSON with the
// expected envelope and event phases.
func TestChromeTraceDecodes(t *testing.T) {
	a := NewAggregator()
	a.Add("p1", syntheticReport(1000))
	a.Add("p2", syntheticReport(2000))
	var buf bytes.Buffer
	if err := a.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit: got %q, want ns", doc.DisplayTimeUnit)
	}
	var meta, slices int
	for _, e := range doc.TraceEvents {
		switch e.Ph {
		case "M":
			meta++
		case "X":
			slices++
		default:
			t.Errorf("unexpected phase %q in event %q", e.Ph, e.Name)
		}
	}
	if meta == 0 || slices == 0 {
		t.Fatalf("expected metadata and slice events, got %d meta / %d slices", meta, slices)
	}
}

func TestClassShare(t *testing.T) {
	r := syntheticReport(1000)
	if got := r.ClassShare(ClassGPU, Compute); got != 0.5 {
		t.Errorf("gpu compute share: got %v, want 0.5", got)
	}
	if got := r.ClassShare(ClassPlane, Transit); got != 0.25 {
		t.Errorf("plane transit share: got %v, want 0.25", got)
	}
	var zero Report
	if got := zero.ClassShare(ClassGPU, Compute); got != 0 {
		t.Errorf("zero-elapsed share must be 0, got %v", got)
	}
}
