package attrib

import (
	"cais/internal/kernel"
	"cais/internal/machine"
	"cais/internal/sim"
)

// PathSeg is one critical-path segment: the kernel that finished last in
// its launch wave, i.e. the kernel the next barrier waited for.
type PathSeg struct {
	Wave  int      `json:"wave"`
	Name  string   `json:"kernel"`
	Kind  string   `json:"kind"`
	Start sim.Time `json:"start_ps"`
	End   sim.Time `json:"end_ps"`
	// Stall is the launch gap after the previous wave's completion.
	Stall sim.Time `json:"stall_ps"`
	// Contrib is this wave's extension of the critical path (its end
	// minus the previous segment's end); segment contributions sum to
	// the path's total length.
	Contrib sim.Time `json:"contrib_ps"`
}

// KindShare is one kernel kind's (or the launch-stall pseudo-kind's)
// share of the critical path.
type KindShare struct {
	Kind string   `json:"kind"`
	Time sim.Time `json:"time_ps"`
}

// launchStallShare is the pseudo-kind collecting inter-wave launch gaps.
const launchStallShare = "launch-stall"

// criticalPath extracts the longest dependency chain over the kernel
// spans. The dependency graph is the wave order: machine.RunStages gives
// every kernel of one stage (a barrier-delimited batch) a shared wave
// number and waves launch strictly after their predecessor completes, so
// the chain of per-wave last finishers IS the longest path through the
// run. Within
// a wave the span with the latest End is critical; ties break to launch
// order (the spans slice is append-ordered), which is deterministic.
func criticalPath(spans []*machine.KernelSpan, elapsed sim.Time) ([]PathSeg, []KindShare) {
	if len(spans) == 0 {
		return nil, nil
	}
	maxWave := 0
	for _, s := range spans {
		if s.Wave > maxWave {
			maxWave = s.Wave
		}
	}
	best := make([]*machine.KernelSpan, maxWave+1)
	for _, s := range spans {
		if b := best[s.Wave]; b == nil || s.End > b.End {
			best[s.Wave] = s
		}
	}
	var path []PathSeg
	var prevEnd sim.Time
	shares := make([]sim.Time, int(kernel.KindComm)+1)
	var stallTotal sim.Time
	for w := 1; w <= maxWave; w++ {
		s := best[w]
		if s == nil {
			continue
		}
		seg := PathSeg{Wave: w, Name: s.Name, Kind: s.Kind.String(), Start: s.Start, End: s.End}
		if s.Start > prevEnd {
			seg.Stall = s.Start - prevEnd
		}
		if s.End > prevEnd {
			seg.Contrib = s.End - prevEnd
		}
		// The contribution splits into the launch gap and the span's own
		// extension; attribute each to its share.
		run := seg.Contrib - seg.Stall
		if run < 0 {
			run = 0
			seg.Stall = seg.Contrib
		}
		stallTotal += seg.Stall
		if k := int(s.Kind); k >= 0 && k < len(shares) {
			shares[k] += run
		}
		if s.End > prevEnd {
			prevEnd = s.End
		}
		path = append(path, seg)
	}
	// Time after the last wave's completion (tail work the strategy layer
	// accounts into elapsed) lands in launch-stall so shares still sum to
	// elapsed exactly.
	if elapsed > prevEnd {
		stallTotal += elapsed - prevEnd
	}
	var out []KindShare
	for k, t := range shares {
		if t > 0 {
			out = append(out, KindShare{Kind: kernel.Kind(k).String(), Time: t})
		}
	}
	if stallTotal > 0 {
		out = append(out, KindShare{Kind: launchStallShare, Time: stallTotal})
	}
	return path, out
}
