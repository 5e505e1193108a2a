// Package metrics provides the measurement utilities the experiment
// harness builds the paper's figures from: binned link-utilization time
// series (Fig. 16), geometric means (the speedup summaries of Figs. 11-12)
// and plain-text table rendering for the CLI and EXPERIMENTS.md.
package metrics

import (
	"fmt"
	"math"
	"strings"

	"cais/internal/sim"
)

// UtilSeries accumulates link busy intervals into fixed-width time bins.
// It implements noc.BusyRecorder; attach one instance to every link whose
// aggregate utilization-over-time is wanted.
type UtilSeries struct {
	bin   sim.Time
	links int
	busy  []sim.Time
}

// NewUtilSeries creates a series with the given bin width covering links
// attached links.
func NewUtilSeries(bin sim.Time, links int) *UtilSeries {
	if bin <= 0 {
		panic("metrics: bin width must be positive")
	}
	if links < 1 {
		links = 1
	}
	// Pre-size for a few hundred bins: sub-layer runs span O(100) bins, so
	// the common case never regrows mid-run.
	return &UtilSeries{bin: bin, links: links, busy: make([]sim.Time, 0, 256)}
}

// RecordBusy implements noc.BusyRecorder: the interval [start, end) is
// distributed across the bins it overlaps. The bin slice is pre-sized from
// the interval end, so a long interval costs one grow instead of one
// append per bin it spans.
func (s *UtilSeries) RecordBusy(start, end sim.Time, bytes int64) {
	if end <= start {
		return
	}
	if start < 0 {
		start = 0
	}
	last := int((end - 1) / s.bin)
	if last >= len(s.busy) {
		if last >= cap(s.busy) {
			// Grow geometrically without the temporary slice an
			// append(make(...)) would allocate on every extension.
			c := 2 * cap(s.busy)
			if c <= last {
				c = last + 1
			}
			grown := make([]sim.Time, last+1, c)
			copy(grown, s.busy)
			s.busy = grown
		} else {
			s.busy = s.busy[:last+1]
		}
	}
	for t := start; t < end; {
		idx := int(t / s.bin)
		binEnd := sim.Time(idx+1) * s.bin
		seg := binEnd
		if end < seg {
			seg = end
		}
		s.busy[idx] += seg - t
		t = seg
	}
}

// UtilTimeline is the value-type snapshot of a finished UtilSeries: a
// replayable telemetry timeline the memo layer can cache and serve on
// hits (DESIGN.md §12). A zero Bin marks "no timeline recorded". The Busy
// slice is shared across cache hits — treat it as read-only.
type UtilTimeline struct {
	Bin   sim.Time
	Links int
	Busy  []sim.Time
}

// Timeline snapshots the series into its replayable value form.
func (s *UtilSeries) Timeline() UtilTimeline {
	return UtilTimeline{Bin: s.bin, Links: s.links, Busy: s.busy}
}

// Utilization returns per-bin utilization in [0, 1]: busy time divided by
// bin width times the number of links feeding the series.
func (t UtilTimeline) Utilization() []float64 {
	out := make([]float64, len(t.Busy))
	denom := float64(t.Bin) * float64(t.Links)
	for i, b := range t.Busy {
		u := float64(b) / denom
		if u > 1 {
			u = 1
		}
		out[i] = u
	}
	return out
}

// Geomean computes the geometric mean of positive values; non-positive
// values are skipped. Empty input yields 0.
func Geomean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		sum += math.Log(x)
		n++
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table renders aligned plain-text tables.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, Headers: headers}
}

// AddRow appends one row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Addf appends one row built from format/value pairs: each argument is
// rendered with %v.
func (t *Table) Addf(cells ...interface{}) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			if math.IsNaN(v) || math.IsInf(v, 0) {
				row[i] = "n/a"
			} else {
				row[i] = fmt.Sprintf("%.3g", v)
			}
		case sim.Time:
			row[i] = v.String()
		default:
			row[i] = fmt.Sprintf("%v", c)
		}
	}
	t.AddRow(row...)
}

// String renders the table.
func (t *Table) String() string {
	cols := len(t.Headers)
	for _, r := range t.Rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	width := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	measure(t.Headers)
	for _, r := range t.Rows {
		measure(r)
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			c := ""
			if i < len(r) {
				c = r[i]
			}
			fmt.Fprintf(&b, "%-*s", width[i]+2, c)
		}
		b.WriteString("\n")
	}
	writeRow(t.Headers)
	sep := make([]string, cols)
	for i := range sep {
		sep[i] = strings.Repeat("-", width[i])
	}
	writeRow(sep)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return b.String()
}
