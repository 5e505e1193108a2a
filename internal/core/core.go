// Package core is the compositional entry point of the CAIS engine: a
// Session assembles a simulated multi-GPU system and executes custom
// kernel pipelines built with the model package's builders. The paper's
// canonical workloads go through the higher-level strategy and experiments
// packages; Session is for bespoke studies (custom collectives, synthetic
// kernels, new fusion shapes).
package core

import (
	"fmt"

	"cais/internal/attrib"
	"cais/internal/config"
	"cais/internal/kernel"
	"cais/internal/machine"
	"cais/internal/metrics"
	"cais/internal/model"
	"cais/internal/nvswitch"
	"cais/internal/sim"
)

// stepLimit is the runaway-simulation guard every session's engine
// carries.
const stepLimit uint64 = 2_000_000_000

// Session is one assembled system plus a staged execution plan.
type Session struct {
	machine *machine.Machine
	builder *model.Builder
	stages  [][]*kernel.Kernel
	ran     bool
}

// Result is everything observable about one run as plain values, plus the
// machine for callers that inspect it further. strategy.Result and
// memo.Entry are this type.
type Result struct {
	Strategy string   // the strategy that lowered the run (strategy runs)
	Elapsed  sim.Time // completion time of the final stage
	// Drained is when the event queue fully drained: all posted data
	// delivered and committed. Collective microbenchmarks time to it.
	Drained  sim.Time
	Stats    nvswitch.Summary
	AvgUtil  float64 // mean link utilization over [0, Elapsed]
	MergeHWM int64   // max per-port merging-table occupancy
	// UpBytes/DownBytes are the wire bytes carried GPU->switch and
	// switch->GPU (Fig. 10's decomposition).
	UpBytes   int64
	DownBytes int64
	// Telemetry is the machine-readable snapshot of every registered
	// metric at run completion (-metrics-json).
	Telemetry metrics.Snapshot
	// Timeline is the binned utilization timeline (Options.UtilBin > 0).
	Timeline metrics.UtilTimeline
	// Attrib is the time-attribution report (Options.Attrib, DESIGN.md
	// §12).
	Attrib *attrib.Report
	// Machine is the machine that ran, nil in a memoized result.
	Machine *machine.Machine
}

// Speedup reports other's elapsed time divided by r's (how much faster r
// is than other).
func (r Result) Speedup(other Result) float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(other.Elapsed) / float64(r.Elapsed)
}

// NewSession assembles a machine for the hardware configuration and the
// run options. Invalid hardware or an invalid fault schedule is an error.
func NewSession(hw config.Hardware, opts machine.Options) (*Session, error) {
	if err := hw.Validate(); err != nil {
		return nil, err
	}
	if err := opts.Faults.Validate(hw.NumGPUs, hw.NumSwitchPlanes); err != nil {
		return nil, err
	}
	eng := sim.NewEngine()
	eng.SetStepLimit(stepLimit)
	m := machine.New(eng, hw, opts)
	return &Session{machine: m, builder: model.NewBuilder(m)}, nil
}

// Builder exposes the kernel builders bound to this session's machine.
func (s *Session) Builder() *model.Builder { return s.builder }

// Machine exposes the underlying machine (links, switches, tile tracker).
func (s *Session) Machine() *machine.Machine { return s.machine }

// Stage appends a new barrier-delimited stage: its kernels launch together
// once every kernel of the previous stage has completed on all GPUs.
func (s *Session) Stage(ks ...*kernel.Kernel) {
	s.stages = append(s.stages, ks)
}

// Concurrent appends kernels to the current stage (creating one if none
// exists), so they co-run with the stage's other kernels.
func (s *Session) Concurrent(ks ...*kernel.Kernel) {
	if len(s.stages) == 0 {
		s.stages = append(s.stages, nil)
	}
	last := len(s.stages) - 1
	s.stages[last] = append(s.stages[last], ks...)
}

// PublishTiles seeds input tiles before the run.
func (s *Session) PublishTiles(tiles []kernel.Tile) {
	s.machine.PublishTiles(tiles)
}

// Run executes the staged plan to completion and reports the run. Under
// Options.Attrib the result carries the time-attribution report.
func (s *Session) Run() (Result, error) {
	if s.ran {
		return Result{}, fmt.Errorf("core: session already ran")
	}
	s.ran = true
	m := s.machine
	doneAt, drained, err := m.RunStages(s.stages)
	if err != nil {
		return Result{}, err
	}
	var rep *attrib.Report
	if m.Opts.Attrib {
		rep = attrib.Build(m, m.Opts.Tracer, doneAt)
	}
	res := Result{
		Elapsed:   doneAt,
		Drained:   drained,
		Stats:     m.SwitchStats(),
		AvgUtil:   m.AvgLinkUtilization(doneAt),
		MergeHWM:  m.MergeTableHighWater(),
		Telemetry: m.Metrics().Snapshot(),
		Timeline:  m.Timeline(),
		Attrib:    rep,
		Machine:   m,
	}
	res.UpBytes, res.DownBytes = m.DirectionTraffic()
	return res, nil
}
