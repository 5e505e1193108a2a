package attrib

import (
	"fmt"
	"io"

	"cais/internal/sim"
	"cais/internal/trace"
)

// Chrome-trace "top contributors" export: each labeled point renders as
// one trace process whose tracks make the attribution visual — the
// critical path as real-time complete slices on track 0, and per bucket
// one track where the top contributing components are laid out as
// consecutive slices sized by their bucket time. The view is recorded on a
// trace.Tracer and serialized by its writer, so it loads in Perfetto /
// chrome://tracing next to a run's full event trace.

// topContributors is how many components each bucket track shows.
const topContributors = 5

// WriteChromeTrace serializes the aggregate in Chrome trace-event JSON.
func (a *Aggregator) WriteChromeTrace(w io.Writer) error {
	labels, reps := a.sorted()
	tr := trace.New()
	for i, l := range labels {
		tracePoint(tr, int32(i), l, reps[i])
	}
	return tr.WriteJSON(w)
}

// WriteChromeTrace serializes a single report as a one-process trace.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	tr := trace.New()
	tracePoint(tr, 0, "attribution", r)
	return tr.WriteJSON(w)
}

// tracePoint records one report as trace process pid.
func tracePoint(tr *trace.Tracer, pid int32, label string, r *Report) {
	tr.NameProcess(pid, label)
	tr.NameThread(pid, 0, "critical path")
	for _, seg := range r.Path {
		tr.Span(pid, 0, seg.Kind, fmt.Sprintf("w%d %s", seg.Wave, seg.Name), seg.Start, seg.End)
	}
	// One track per bucket, its top contributors stacked from t=0.
	for b := Bucket(0); int(b) < NumBuckets; b++ {
		top := topFor(r, b)
		if len(top) == 0 {
			continue
		}
		tid := int32(b) + 1
		tr.NameThread(pid, tid, "top "+b.String())
		var at sim.Time
		for _, c := range top {
			tr.Span(pid, tid, b.String(), c.Name, at, at+c.Buckets[b])
			at += c.Buckets[b]
		}
	}
}

// topFor picks the bucket's top contributors by time (desc), breaking
// ties by component order (GPU index, then plane index) — deterministic.
func topFor(r *Report, b Bucket) []Component {
	var out []Component
	for _, c := range r.Components {
		if c.Buckets[b] > 0 {
			out = append(out, c)
		}
	}
	// Stable insertion sort by bucket time descending: component order is
	// already deterministic, so equal times keep index order.
	for i := 1; i < len(out); i++ {
		v := out[i]
		j := i
		for ; j > 0 && out[j-1].Buckets[b] < v.Buckets[b]; j-- {
			out[j] = out[j-1]
		}
		out[j] = v
	}
	if len(out) > topContributors {
		out = out[:topContributors]
	}
	return out
}
