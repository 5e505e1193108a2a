package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// Registry is the central metric registry: every subsystem registers its
// counters, gauges and histograms by name (naming scheme:
// "subsystem.metric", optionally with an instance segment such as
// "nvswitch.plane0.merged_loads") and the registry snapshots them into a
// machine-readable run report.
//
// The registry holds no counts: components keep theirs in plain fields and
// register functions that read them at snapshot time (CounterFunc,
// GaugeFunc). Only histograms, which have no plain-field form, live here.
// Registering a name again with the same kind is idempotent (a function
// is replaced, a histogram returned); with a different kind it panics —
// two subsystems fighting over one name is a wiring bug. The registry is
// not goroutine-safe: the simulation engine is single-threaded and metric
// updates happen only on the event loop.
type Registry struct {
	items map[string]metric
}

type metric interface {
	snap(name string) Metric
	kind() string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{items: make(map[string]metric)}
}

// CounterFunc registers a lazily-read monotonic counter: fn is called at
// snapshot time, so the count lives in the component that increments it.
// Re-registering the same name replaces the function.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	r.setFunc(name, "counter", func() float64 { return float64(fn()) })
}

// GaugeFunc registers a lazily-evaluated gauge: fn is called at snapshot
// time. Re-registering the same name replaces the function.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	r.setFunc(name, "gauge", fn)
}

func (r *Registry) setFunc(name, kind string, fn func() float64) {
	if existing, ok := r.items[name]; ok {
		f, isFn := existing.(*funcMetric)
		if !isFn || f.k != kind {
			panic(fmt.Sprintf("metrics: %q registered as %s and %s", name, existing.kind(), kind))
		}
		f.fn = fn
		return
	}
	r.items[name] = &funcMetric{k: kind, fn: fn}
}

// Hist returns the named histogram, creating it on first use.
func (r *Registry) Hist(name string) *Hist {
	existing, ok := r.items[name]
	if !ok {
		h := newHist()
		r.items[name] = h
		return h
	}
	h, isHist := existing.(*Hist)
	if !isHist {
		panic(fmt.Sprintf("metrics: %q registered as %s and hist", name, existing.kind()))
	}
	return h
}

// Snapshot captures every registered metric, sorted by name.
func (r *Registry) Snapshot() Snapshot {
	names := make([]string, 0, len(r.items))
	for n := range r.items {
		names = append(names, n)
	}
	sort.Strings(names)
	out := Snapshot{Metrics: make([]Metric, 0, len(names))}
	for _, n := range names {
		out.Metrics = append(out.Metrics, r.items[n].snap(n))
	}
	return out
}

// funcMetric is a counter or gauge read through a function at snapshot
// time.
type funcMetric struct {
	k  string // "counter" or "gauge"
	fn func() float64
}

func (f *funcMetric) kind() string { return f.k }
func (f *funcMetric) snap(name string) Metric {
	return Metric{Name: name, Kind: f.k, Value: f.fn()}
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts values in (2^(i-1), 2^i] (bucket 0 holds (0, 1]).
const histBuckets = 64

// Hist is a power-of-two frequency histogram.
type Hist struct {
	buckets [histBuckets]float64
	count   int64
	sum     float64
	min     float64
	max     float64
}

func newHist() *Hist { return &Hist{min: math.Inf(1), max: math.Inf(-1)} }

// Observe records v. NaN values are ignored.
func (h *Hist) Observe(v float64) {
	if math.IsNaN(v) {
		return
	}
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

// bucketOf maps a value to the bucket index i with 2^(i-1) < v <= 2^i.
func bucketOf(v float64) int {
	if v <= 1 {
		return 0
	}
	frac, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	b := exp
	if frac == 0.5 { // exact power of two belongs to the lower bucket
		b = exp - 1
	}
	if b < 0 {
		b = 0
	}
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// Count reports the number of observations.
func (h *Hist) Count() int64 { return h.count }

// Mean reports the mean of observations (0 when empty).
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max reports the largest observed value (0 when empty).
func (h *Hist) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (0 <= q <= 1) of the observed
// distribution from the power-of-two buckets: it walks the bucket CDF to
// the crossing bucket and interpolates linearly within it, clamping to the
// exact observed min/max. Resolution is bounded by the bucket width (a
// factor of two), which is adequate for the latency-distribution exports
// this feeds; consumers needing exact order statistics must keep the raw
// samples (internal/serve's SLO evaluator does).
func (h *Hist) Quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	target := q * float64(h.count)
	cum := 0.0
	for i, w := range h.buckets {
		if w == 0 {
			continue
		}
		if cum+w < target {
			cum += w
			continue
		}
		// Crossing bucket: interpolate between its bounds (lo, hi].
		hi := math.Ldexp(1, i)
		lo := 0.0
		if i > 0 {
			lo = hi / 2
		}
		v := lo + (target-cum)/w*(hi-lo)
		// The true extremes are known exactly; never report past them.
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

func (h *Hist) kind() string { return "hist" }
func (h *Hist) snap(name string) Metric {
	m := Metric{Name: name, Kind: "hist", Value: h.Mean(), Count: h.count}
	if h.count > 0 {
		m.Min, m.Max, m.Sum = h.min, h.max, h.sum
		m.P50, m.P95, m.P99 = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
		for i, w := range h.buckets {
			if w == 0 {
				continue
			}
			m.Buckets = append(m.Buckets, Bucket{UpperBound: math.Ldexp(1, i), Weight: w})
		}
	}
	return m
}

// Metric is one snapshotted metric, JSON-ready. Value carries the counter
// or gauge value; for histograms it is the mean.
type Metric struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value"`
	Count int64   `json:"count,omitempty"`
	Sum   float64 `json:"sum,omitempty"`
	Min   float64 `json:"min,omitempty"`
	Max   float64 `json:"max,omitempty"`
	// P50/P95/P99 are bucket-interpolated quantile estimates, present for
	// histograms only (see Hist.Quantile for the resolution caveat).
	P50     float64  `json:"p50,omitempty"`
	P95     float64  `json:"p95,omitempty"`
	P99     float64  `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Bucket is one histogram bucket: Weight counts the observations in
// (UpperBound/2, UpperBound].
type Bucket struct {
	UpperBound float64 `json:"le"`
	Weight     float64 `json:"weight"`
}

// Snapshot is a machine-readable capture of a registry: the structured
// telemetry block attached to run results and serialized by -metrics-json.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Get looks a metric up by name.
func (s Snapshot) Get(name string) (Metric, bool) {
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Value returns a metric's value by name (0 when absent).
func (s Snapshot) Value(name string) float64 {
	m, _ := s.Get(name)
	return m.Value
}

// Len reports how many metrics the snapshot holds.
func (s Snapshot) Len() int { return len(s.Metrics) }

// WriteJSON serializes the snapshot with stable ordering.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}
