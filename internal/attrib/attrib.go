// Package attrib is the deterministic time-attribution engine: it
// consumes the trace spans and fault schedule of one finished run and
// partitions every component's wall time — each GPU and each switch
// plane — into exclusive buckets (compute, merge, transit, queueing
// stall, sync wait, fault-induced stall) that sum exactly to the run's
// elapsed time in simulation ticks.
//
// The partition is an interval sweep: each bucket contributes a set of
// half-open intervals harvested from the tracer (TB execution spans,
// barrier waits, link busy slices, merge sessions) or derived from the
// fault schedule; buckets claim time in a fixed per-component priority
// order, later buckets only counting time not already claimed; whatever
// remains of [0, elapsed) is the queueing stall. Integer tick arithmetic
// on sorted interval lists makes the result exact and bit-reproducible —
// no floats, no map iteration, no wall clock.
//
// On top of the per-component breakdown the package extracts the
// critical path over the kernel dependency graph (see path.go) and folds
// per-point reports into sweep-level tables and exports (aggregate.go,
// chrome.go). Attribution is strictly offline: it runs after the engine
// has drained, so enabling it cannot perturb the simulated result.
package attrib

import (
	"cmp"
	"fmt"
	"slices"

	"cais/internal/faults"
	"cais/internal/machine"
	"cais/internal/metrics"
	"cais/internal/sim"
	"cais/internal/trace"
)

// Bucket is one exclusive time-attribution class.
type Bucket int

const (
	// Compute is time a GPU spends executing thread blocks.
	Compute Bucket = iota
	// Merge is time a switch plane holds live merge/NVLS sessions.
	Merge
	// Transit is time a plane's links are serializing packets.
	Transit
	// SyncWait is time a GPU blocks on barrier/group synchronization
	// outside of TB execution.
	SyncWait
	// FaultStall is otherwise-unattributed time inside an active fault
	// window targeting the component.
	FaultStall
	// QueueStall is the remainder: the component is neither computing,
	// merging, transiting, syncing nor faulted — it queues or idles.
	QueueStall

	// NumBuckets is the bucket count (array dimension).
	NumBuckets int = iota
)

// String names the bucket as rendered in tables and JSON.
func (b Bucket) String() string {
	switch b {
	case Compute:
		return "compute"
	case Merge:
		return "merge"
	case Transit:
		return "transit"
	case SyncWait:
		return "sync-wait"
	case FaultStall:
		return "fault-stall"
	case QueueStall:
		return "queue-stall"
	}
	return fmt.Sprintf("bucket(%d)", int(b))
}

// Class distinguishes the two component families of the breakdown.
type Class int

const (
	// ClassGPU marks a per-GPU component.
	ClassGPU Class = iota
	// ClassPlane marks a per-switch-plane component.
	ClassPlane
)

// Component is one hardware component's exclusive wall-time partition.
// The buckets sum exactly to the report's Elapsed.
type Component struct {
	Name    string `json:"name"`
	Class   Class  `json:"-"`
	Buckets [NumBuckets]sim.Time
}

// Total sums the buckets (always equal to the report's Elapsed).
func (c Component) Total() sim.Time {
	var t sim.Time
	for _, b := range c.Buckets {
		t += b
	}
	return t
}

// Report is the value-type attribution of one simulation point. It holds
// no live simulation state, so the memo layer caches it and replays it on
// hits; treat slices as read-only (they are shared across hits).
type Report struct {
	// Elapsed is the run's completion time; every component's buckets sum
	// to it exactly.
	Elapsed sim.Time
	// Components lists every GPU then every switch plane, in index order.
	Components []Component
	// Path is the critical path over the kernel dependency graph: one
	// segment per launch wave, chained in wave order (path.go).
	Path []PathSeg
	// PathShare decomposes Elapsed along the critical path by kernel kind
	// plus the "launch-stall" share; the shares sum to Elapsed.
	PathShare []KindShare
}

// interval is one half-open busy window [start, end).
type interval struct{ start, end sim.Time }

// addClamped appends [s, e) clamped to [0, limit), dropping empties.
func addClamped(iv []interval, s, e, limit sim.Time) []interval {
	if s < 0 {
		s = 0
	}
	if e > limit {
		e = limit
	}
	if e <= s {
		return iv
	}
	return append(iv, interval{s, e})
}

// merge sorts the intervals and coalesces overlaps in place, returning
// the merged, strictly ascending, pairwise-disjoint list.
func merge(iv []interval) []interval {
	if len(iv) < 2 {
		return iv
	}
	slices.SortFunc(iv, func(a, b interval) int {
		if a.start != b.start {
			return cmp.Compare(a.start, b.start)
		}
		return cmp.Compare(a.end, b.end)
	})
	out := iv[:1]
	for _, v := range iv[1:] {
		last := &out[len(out)-1]
		if v.start <= last.end {
			if v.end > last.end {
				last.end = v.end
			}
			continue
		}
		out = append(out, v)
	}
	return out
}

// union returns the merged list covering a and b, both merged lists, in
// one linear pass that coalesces overlapping or touching neighbours as
// merge does.
func union(a, b []interval) []interval {
	out := make([]interval, 0, len(a)+len(b))
	for len(a) > 0 || len(b) > 0 {
		var v interval
		if len(b) == 0 || len(a) > 0 && a[0].start <= b[0].start {
			v, a = a[0], a[1:]
		} else {
			v, b = b[0], b[1:]
		}
		if n := len(out); n > 0 && v.start <= out[n-1].end {
			out[n-1].end = max(out[n-1].end, v.end)
			continue
		}
		out = append(out, v)
	}
	return out
}

// subtract returns a minus b; both inputs must be merged lists.
func subtract(a, b []interval) []interval {
	var out []interval
	j := 0
	for _, v := range a {
		s := v.start
		for j < len(b) && b[j].end <= s {
			j++
		}
		k := j
		for k < len(b) && b[k].start < v.end {
			if b[k].start > s {
				out = append(out, interval{s, b[k].start})
			}
			if b[k].end > s {
				s = b[k].end
			}
			if s >= v.end {
				break
			}
			k++
		}
		if s < v.end {
			out = append(out, interval{s, v.end})
		}
	}
	return out
}

// length sums a disjoint interval list.
func length(iv []interval) sim.Time {
	var t sim.Time
	for _, v := range iv {
		t += v.end - v.start
	}
	return t
}

// fill partitions [0, elapsed) for one component: buckets claim time in
// priority order (earlier wins overlaps), QueueStall takes the remainder.
// Exactness is structural: claimed pieces are pairwise disjoint subsets
// of [0, elapsed), so their lengths plus the remainder sum to elapsed.
func fill(c *Component, elapsed sim.Time, prio []Bucket, ivs [][]interval) {
	var covered []interval
	var total sim.Time
	for i, b := range prio {
		u := merge(ivs[i])
		fresh := subtract(u, covered)
		c.Buckets[b] = length(fresh)
		total += c.Buckets[b]
		covered = union(covered, fresh)
	}
	c.Buckets[QueueStall] = elapsed - total
}

// openSpan tracks an unmatched async begin event.
type openSpan struct {
	pid     int32
	sync    bool // a trace.CatSync wait; else a trace.CatMerge session
	start   sim.Time
	matched bool
}

// Build attributes a finished run. It reads the machine's topology, fault
// schedule and kernel spans plus the tracer's recorded events; the
// returned report is a plain value safe to cache and share.
func Build(m *machine.Machine, tr *trace.Tracer, elapsed sim.Time) *Report {
	nGPU := m.HW.NumGPUs
	nPlane := m.HW.NumSwitchPlanes

	gpuCompute := make([][]interval, nGPU)
	gpuSync := make([][]interval, nGPU)
	gpuFault := make([][]interval, nGPU)
	planeTransit := make([][]interval, nPlane)
	planeMerge := make([][]interval, nPlane)
	planeFault := make([][]interval, nPlane)

	// One pass over the trace. Async begin/end events pair by the
	// tracer's globally unique correlation ID; spans still open at the
	// end of the run close at elapsed (slice scan, not map iteration, so
	// leftovers process in recording order).
	var opens []openSpan
	openIdx := make(map[uint64]int)
	tr.Visit(func(e trace.Event) {
		switch e.Phase {
		case trace.PhaseComplete:
			switch e.Cat {
			case trace.CatTB:
				if g := int(e.Pid) - int(trace.GPUPid(0)); g >= 0 && g < nGPU {
					gpuCompute[g] = addClamped(gpuCompute[g], e.Ts, e.Ts+e.Dur, elapsed)
				}
			case trace.CatLink:
				if p := int(e.Pid) - int(trace.SwitchPid(0)); p >= 0 && p < nPlane {
					planeTransit[p] = addClamped(planeTransit[p], e.Ts, e.Ts+e.Dur, elapsed)
				}
			}
		case trace.PhaseAsyncBegin:
			if e.Cat == trace.CatSync || e.Cat == trace.CatMerge {
				openIdx[e.ID] = len(opens)
				opens = append(opens, openSpan{pid: e.Pid, sync: e.Cat == trace.CatSync, start: e.Ts})
			}
		case trace.PhaseAsyncEnd:
			if e.Cat != trace.CatSync && e.Cat != trace.CatMerge {
				return
			}
			i, ok := openIdx[e.ID]
			if !ok || opens[i].matched {
				return
			}
			opens[i].matched = true
			emitAsync(opens[i], e.Ts, elapsed, nGPU, nPlane, gpuSync, planeMerge)
		}
	})
	for _, o := range opens {
		if !o.matched {
			emitAsync(o, elapsed, elapsed, nGPU, nPlane, gpuSync, planeMerge)
		}
	}

	// Fault windows from the schedule: [At, At+For), permanent when For
	// is zero. Straggler windows land on the slowed GPU, everything else
	// on the targeted plane(s).
	if s := m.Opts.Faults; !s.Empty() {
		for _, f := range s.Faults {
			end := elapsed
			if f.For > 0 {
				end = f.At + f.For
			}
			if f.Kind == faults.Straggler {
				for g := 0; g < nGPU; g++ {
					if f.GPU == faults.All || f.GPU == g {
						gpuFault[g] = addClamped(gpuFault[g], f.At, end, elapsed)
					}
				}
				continue
			}
			for p := 0; p < nPlane; p++ {
				if f.Plane == faults.All || f.Plane == p {
					planeFault[p] = addClamped(planeFault[p], f.At, end, elapsed)
				}
			}
		}
	}

	rep := &Report{Elapsed: elapsed}
	for g := 0; g < nGPU; g++ {
		c := Component{Name: fmt.Sprintf("gpu%d", g), Class: ClassGPU}
		fill(&c, elapsed, []Bucket{Compute, SyncWait, FaultStall},
			[][]interval{gpuCompute[g], gpuSync[g], gpuFault[g]})
		rep.Components = append(rep.Components, c)
	}
	for p := 0; p < nPlane; p++ {
		c := Component{Name: fmt.Sprintf("plane%d", p), Class: ClassPlane}
		fill(&c, elapsed, []Bucket{Transit, Merge, FaultStall},
			[][]interval{planeTransit[p], planeMerge[p], planeFault[p]})
		rep.Components = append(rep.Components, c)
	}
	rep.Path, rep.PathShare = criticalPath(m.KernelSpans, elapsed)
	return rep
}

// emitAsync routes one closed async span to its component's bucket list.
func emitAsync(o openSpan, end, elapsed sim.Time, nGPU, nPlane int, gpuSync, planeMerge [][]interval) {
	if o.sync {
		if g := int(o.pid) - int(trace.GPUPid(0)); g >= 0 && g < nGPU {
			gpuSync[g] = addClamped(gpuSync[g], o.start, end, elapsed)
		}
		return
	}
	if p := int(o.pid) - int(trace.SwitchPid(0)); p >= 0 && p < nPlane {
		planeMerge[p] = addClamped(planeMerge[p], o.start, end, elapsed)
	}
}

// ClassShare reports the mean fraction of elapsed time the class's
// components spend in the bucket (0 when the class has no components).
func (r *Report) ClassShare(cl Class, b Bucket) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	var sum sim.Time
	n := 0
	for _, c := range r.Components {
		if c.Class == cl {
			sum += c.Buckets[b]
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / (float64(r.Elapsed) * float64(n))
}

// ShareOf reports one named path share's fraction of elapsed time.
func (r *Report) ShareOf(kind string) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	for _, s := range r.PathShare {
		if s.Kind == kind {
			return float64(s.Time) / float64(r.Elapsed)
		}
	}
	return 0
}

// RenderBreakdown formats the per-component bucket table.
func (r *Report) RenderBreakdown() string {
	t := metrics.NewTable("Time attribution (per component; buckets sum to elapsed "+r.Elapsed.String()+")",
		"Component", "compute", "merge", "transit", "sync-wait", "fault-stall", "queue-stall")
	for _, c := range r.Components {
		t.AddRow(c.Name,
			c.Buckets[Compute].String(), c.Buckets[Merge].String(),
			c.Buckets[Transit].String(), c.Buckets[SyncWait].String(),
			c.Buckets[FaultStall].String(), c.Buckets[QueueStall].String())
	}
	return t.String()
}

// RenderPath formats the critical-path table, eliding the middle of paths
// longer than max segments (max <= 0 prints everything).
func (r *Report) RenderPath(max int) string {
	t := metrics.NewTable("Critical path (one segment per launch wave)",
		"Wave", "Kernel", "Kind", "start", "end", "launch-stall", "contribution")
	segs := r.Path
	elided := 0
	if max > 0 && len(segs) > max {
		elided = len(segs) - max
		segs = segs[:max]
	}
	for _, s := range segs {
		t.AddRow(fmt.Sprintf("%d", s.Wave), s.Name, s.Kind,
			s.Start.String(), s.End.String(), s.Stall.String(), s.Contrib.String())
	}
	if elided > 0 {
		t.AddRow("...", fmt.Sprintf("(%d more segments)", elided), "", "", "", "", "")
	}
	share := "path share:"
	for _, s := range r.PathShare {
		share += fmt.Sprintf(" %s %.1f%%", s.Kind, r.ShareOf(s.Kind)*100)
	}
	return t.String() + share + "\n"
}

// Render formats the full single-point report.
func (r *Report) Render() string {
	return r.RenderBreakdown() + "\n" + r.RenderPath(40)
}
