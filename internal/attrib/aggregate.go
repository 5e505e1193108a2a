package attrib

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"

	"cais/internal/metrics"
	"cais/internal/sim"
)

// Aggregator folds per-point reports into sweep-level views. It is the
// one attrib type shared across parallel sweep workers, so Add is
// mutex-guarded; every read-side method renders from the label-sorted
// point list, so output bytes are independent of worker count and of
// whether a report came from a cold run or a memo hit.
type Aggregator struct {
	mu     sync.Mutex
	points map[string]*Report
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{points: make(map[string]*Report)}
}

// Add records one point's report under its label. Nil-safe on both sides
// (no aggregator attached, or a run without attribution): drivers call it
// unconditionally. Re-adding a label overwrites — memoized sweeps revisit
// the same point with the identical replayed report.
func (a *Aggregator) Add(label string, r *Report) {
	if a == nil || r == nil {
		return
	}
	a.mu.Lock()
	a.points[label] = r
	a.mu.Unlock()
}

// Len reports how many labeled points have been added.
func (a *Aggregator) Len() int {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.points)
}

// sorted snapshots the points in label order.
func (a *Aggregator) sorted() (labels []string, reps []*Report) {
	a.mu.Lock()
	defer a.mu.Unlock()
	labels = make([]string, 0, len(a.points))
	for l := range a.points {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	reps = make([]*Report, len(labels))
	for i, l := range labels {
		reps[i] = a.points[l]
	}
	return labels, reps
}

// Render formats the sweep-level attribution table: one row per point,
// class-averaged bucket shares plus the critical path's communication
// share. Rows are label-sorted, so the bytes are deterministic.
func (a *Aggregator) Render() string {
	labels, reps := a.sorted()
	t := metrics.NewTable("Time attribution across points (class-averaged share of elapsed, %)",
		"Point", "elapsed",
		"gpu:compute", "gpu:sync", "gpu:stall",
		"plane:transit", "plane:merge", "plane:stall",
		"fault", "crit:comm")
	pct := func(v float64) string { return fmt.Sprintf("%.1f", v*100) }
	for i, l := range labels {
		r := reps[i]
		fault := (r.ClassShare(ClassGPU, FaultStall) + r.ClassShare(ClassPlane, FaultStall)) / 2
		t.AddRow(l, r.Elapsed.String(),
			pct(r.ClassShare(ClassGPU, Compute)),
			pct(r.ClassShare(ClassGPU, SyncWait)),
			pct(r.ClassShare(ClassGPU, QueueStall)),
			pct(r.ClassShare(ClassPlane, Transit)),
			pct(r.ClassShare(ClassPlane, Merge)),
			pct(r.ClassShare(ClassPlane, QueueStall)),
			pct(fault),
			pct(r.ShareOf("comm")))
	}
	return t.String()
}

// jsonComponent is the JSON form of one component's buckets.
type jsonComponent struct {
	Name       string   `json:"name"`
	Compute    sim.Time `json:"compute_ps"`
	Merge      sim.Time `json:"merge_ps"`
	Transit    sim.Time `json:"transit_ps"`
	SyncWait   sim.Time `json:"sync_wait_ps"`
	FaultStall sim.Time `json:"fault_stall_ps"`
	QueueStall sim.Time `json:"queue_stall_ps"`
}

// jsonPoint is the JSON form of one labeled point.
type jsonPoint struct {
	Label      string          `json:"label"`
	Elapsed    sim.Time        `json:"elapsed_ps"`
	Components []jsonComponent `json:"components"`
	Path       []PathSeg       `json:"critical_path"`
	PathShare  []KindShare     `json:"path_share"`
}

func jsonOf(label string, r *Report) jsonPoint {
	p := jsonPoint{Label: label, Elapsed: r.Elapsed, Path: r.Path, PathShare: r.PathShare}
	for _, c := range r.Components {
		p.Components = append(p.Components, jsonComponent{
			Name:       c.Name,
			Compute:    c.Buckets[Compute],
			Merge:      c.Buckets[Merge],
			Transit:    c.Buckets[Transit],
			SyncWait:   c.Buckets[SyncWait],
			FaultStall: c.Buckets[FaultStall],
			QueueStall: c.Buckets[QueueStall],
		})
	}
	return p
}

// WriteJSON serializes every point, label-sorted, as one JSON document.
func (a *Aggregator) WriteJSON(w io.Writer) error {
	labels, reps := a.sorted()
	points := make([]jsonPoint, 0, len(labels))
	for i, l := range labels {
		points = append(points, jsonOf(l, reps[i]))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(struct {
		Points []jsonPoint `json:"points"`
	}{points})
}

// WriteJSON serializes a single report as a one-point document (the
// -attrib-json form for strategy runs).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(jsonOf("run", r))
}
