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
	elapsed sim.Time
	drained sim.Time
	attrib  *attrib.Report
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

// Run executes the staged plan to completion and returns the simulated
// time at which the final stage finished. Under Options.Attrib it then
// builds the time-attribution report (Attrib).
func (s *Session) Run() (sim.Time, error) {
	if s.ran {
		return 0, fmt.Errorf("core: session already ran")
	}
	s.ran = true
	doneAt, drained, err := s.machine.RunStages(s.stages)
	s.drained = drained
	if err != nil {
		return 0, err
	}
	s.elapsed = doneAt
	if s.machine.Opts.Attrib {
		s.attrib = attrib.Build(s.machine, s.machine.Opts.Tracer, doneAt)
	}
	return doneAt, nil
}

// Attrib returns the time-attribution report of the run (DESIGN.md §12),
// or nil unless the session ran with Options.Attrib.
func (s *Session) Attrib() *attrib.Report { return s.attrib }

// Elapsed reports the completion time of the last Run's staged plan
// (thread-block retirement; posted writes may still be in flight).
func (s *Session) Elapsed() sim.Time { return s.elapsed }

// DrainedAt reports when the event queue fully drained — all posted data
// delivered and committed. Collective microbenchmarks should use this.
func (s *Session) DrainedAt() sim.Time { return s.drained }

// SwitchStats folds the per-plane switch statistics.
func (s *Session) SwitchStats() nvswitch.Summary { return s.machine.SwitchStats() }

// AvgLinkUtilization reports the mean link busy fraction over the run.
func (s *Session) AvgLinkUtilization() float64 {
	return s.machine.AvgLinkUtilization(s.elapsed)
}
