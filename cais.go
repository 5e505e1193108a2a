// Package cais is the public facade of the CAIS reproduction: a
// discrete-event simulation stack for compute-aware in-switch computing on
// NVLink/NVSwitch multi-GPU systems, reproducing "Towards Compute-Aware
// In-Switch Computing for LLMs Tensor-Parallelism on Multi-GPU Systems"
// (HPCA 2026).
//
// The facade exposes three levels:
//
//   - Canonical workloads: RunInference / RunTraining / RunSubLayer execute
//     the paper's transformer workloads under any of the twelve execution
//     strategies (CAIS, its ablations, and the nine baselines).
//   - Experiments: RunExperiment regenerates any table or figure of the
//     paper's evaluation section by ID (see ExperimentNames).
//   - Sessions: NewSession (internal/core) composes custom kernel
//     pipelines against the same simulated machine for bespoke studies.
package cais

import (
	"cais/internal/attrib"
	"cais/internal/config"
	"cais/internal/core"
	"cais/internal/experiments"
	"cais/internal/faults"
	"cais/internal/memo"
	"cais/internal/metrics"
	"cais/internal/model"
	"cais/internal/serve"
	"cais/internal/sim"
	"cais/internal/strategy"
	"cais/internal/trace"
)

// Re-exported core types.
type (
	// Hardware is the simulated system configuration (GPUs, switches,
	// links, merge tables).
	Hardware = config.Hardware
	// Model is one LLM workload configuration (Table I).
	Model = config.Model
	// Strategy is one execution strategy (CAIS or a baseline).
	Strategy = strategy.Spec
	// RunOptions tune a strategy run or a Session: design ablations,
	// fault injection and observers.
	RunOptions = strategy.Options
	// Result is a simulated run's outcome.
	Result = strategy.Result
	// SubLayer is one of the paper's communication-intensive sub-layer
	// pipelines (Fig. 12's L1-L4).
	SubLayer = model.SubLayer
	// Session composes custom kernel pipelines (see internal/core).
	Session = core.Session
	// ExperimentConfig tunes experiment fidelity.
	ExperimentConfig = experiments.Config
	// MemoCache is the cross-sweep simulation-point cache: attach one via
	// ExperimentConfig.Memo so experiment drivers sharing anchor points
	// simulate each point once per invocation (DESIGN.md §10). Output is
	// byte-identical with and without it.
	MemoCache = memo.Cache
	// Time is simulated time in picoseconds.
	Time = sim.Time
	// Tracer records simulation events for Perfetto/Chrome trace viewers.
	// A nil Tracer disables tracing with zero overhead.
	Tracer = trace.Tracer
	// Telemetry is a point-in-time snapshot of every registered metric.
	Telemetry = metrics.Snapshot
	// Metric is one named telemetry value in a snapshot.
	Metric = metrics.Metric
	// FaultSchedule is a declarative fault-injection schedule (DESIGN.md
	// §8). Attach via RunOptions.Faults; nil reproduces the unfaulted run
	// bit-for-bit.
	FaultSchedule = faults.Schedule
	// Fault is one fault of a schedule (kind, onset, duration, target).
	Fault = faults.Fault
	// AttribReport is one run's deterministic time-attribution report:
	// per-component bucket breakdown plus the critical path (DESIGN.md
	// §12). Produced via RunOptions.Attrib.
	AttribReport = attrib.Report
	// AttribAggregator folds labeled per-point reports into sweep-level
	// tables and JSON/Chrome-trace exports. Attach via
	// ExperimentConfig.Attrib (caissim -attrib).
	AttribAggregator = attrib.Aggregator
	// UtilTimeline is a replayable binned link-utilization timeline
	// (RunOptions.UtilBin).
	UtilTimeline = metrics.UtilTimeline
	// MetricsRegistry registers named counters and gauges and snapshots
	// them into Telemetry.
	MetricsRegistry = metrics.Registry
	// ServingWorkload is an open-loop request-arrival workload for the
	// serving engine (DESIGN.md §13).
	ServingWorkload = serve.Workload
	// ServingLengthDist is a prompt/output token-length distribution;
	// build one with ServingFixed or ServingUniform.
	ServingLengthDist = serve.LengthDist
	// ServingResult is one serving run's completed request trace.
	ServingResult = serve.Result
	// ServingSLO is a latency service-level objective for EvaluateServing.
	ServingSLO = serve.SLO
	// ServingSummary is the SLO/goodput evaluation of a serving run.
	ServingSummary = serve.Summary
)

// NewTracer creates an enabled event tracer. Pass it via RunOptions.Tracer
// and serialize it with its WriteJSON.
func NewTracer() *Tracer { return trace.New() }

// DGXH100 returns the paper's simulated system configuration.
func DGXH100() Hardware { return config.DGXH100() }

// TableIModels returns the three evaluation models.
func TableIModels() []Model { return config.TableIModels() }

// LLaMA7B returns the LLaMA-7B configuration of Table I.
func LLaMA7B() Model { return config.LLaMA7B() }

// MegaGPT4B returns the Mega-GPT-4B configuration of Table I.
func MegaGPT4B() Model { return config.MegaGPT4B() }

// MegaGPT8B returns the Mega-GPT-8B configuration of Table I.
func MegaGPT8B() Model { return config.MegaGPT8B() }

// Strategies returns the nine baselines plus CAIS-Base and CAIS.
func Strategies() []Strategy { return strategy.All() }

// ExtensionStrategies returns strategies beyond the paper's evaluated set
// (currently CAIS-TP, the compute-aware GEMM-AR lowering of Fig. 1h).
func ExtensionStrategies() []Strategy { return strategy.Extensions() }

// CAIS returns the full compute-aware in-switch computing strategy.
func CAIS() Strategy { return strategy.CAIS() }

// StrategyByName resolves a strategy case-insensitively (including the
// CAIS-Partial and CAIS-w/o-Coord ablations).
func StrategyByName(name string) (Strategy, error) { return strategy.ByName(name) }

// SubLayers returns the paper's L1-L4 sub-layer pipelines for a model.
func SubLayers(m Model) []SubLayer { return model.SubLayers(m) }

// RunInference simulates `layers` transformer layers of prefill under the
// strategy and returns the elapsed simulated time and statistics. The run
// options carry design ablations, fault injection, tracing, progress
// callbacks and attribution; the zero value runs the plain design.
func RunInference(hw Hardware, s Strategy, m Model, layers int, opts RunOptions) (Result, error) {
	return strategy.RunLayersOpts(hw, s, m, false, layers, opts)
}

// RunTraining simulates `layers` layers of a training step (forward and
// backward) under the strategy.
func RunTraining(hw Hardware, s Strategy, m Model, layers int, opts RunOptions) (Result, error) {
	return strategy.RunLayersOpts(hw, s, m, true, layers, opts)
}

// RunSubLayer simulates one sub-layer pipeline under the strategy.
func RunSubLayer(hw Hardware, s Strategy, sub SubLayer, opts RunOptions) (Result, error) {
	return strategy.RunSubLayer(hw, s, sub, opts)
}

// LoadFaultSchedule reads a JSON fault schedule from a file (the grammar
// is documented in DESIGN.md §8).
func LoadFaultSchedule(path string) (*FaultSchedule, error) { return faults.Load(path) }

// ParseFaultSchedule parses a JSON fault schedule.
func ParseFaultSchedule(data []byte) (*FaultSchedule, error) { return faults.Parse(data) }

// NewSession assembles a machine for custom kernel pipelines. It honours
// every run option a strategy run does.
func NewSession(hw Hardware, opts RunOptions) (*Session, error) {
	return core.NewSession(hw, opts)
}

// NewMemoCache creates an empty simulation-point cache for
// ExperimentConfig.Memo.
func NewMemoCache() *MemoCache { return memo.NewCache() }

// NewAttribAggregator creates an empty attribution aggregator for
// ExperimentConfig.Attrib.
func NewAttribAggregator() *AttribAggregator { return attrib.NewAggregator() }

// NewMetricsRegistry creates an empty metrics registry (caissim uses one
// to export sweep-level counters such as the memo cache's hit/miss totals
// via -metrics-json in experiment mode).
func NewMetricsRegistry() *MetricsRegistry { return metrics.NewRegistry() }

// RegisterMemoMetrics exposes a memo cache's hit/miss/single-flight
// counters in a registry as memo.* gauges.
func RegisterMemoMetrics(c *MemoCache, reg *MetricsRegistry) { c.RegisterMetrics(reg) }

// ServingFixed returns a length distribution yielding v tokens always.
func ServingFixed(v int) ServingLengthDist { return serve.Fixed(v) }

// ServingUniform returns a uniform length distribution over [lo, hi] tokens.
func ServingUniform(lo, hi int) ServingLengthDist { return serve.Uniform(lo, hi) }

// RunServing drives the continuous-batching scheduler over the workload,
// pricing iterations by memoized strategy-layer anchor simulations: layers
// is the per-anchor simulated depth, cache may be nil (a private cache
// still collapses repeated shapes). See DESIGN.md §13.
func RunServing(hw Hardware, s Strategy, m Model, layers int, w ServingWorkload, cache *MemoCache) (ServingResult, error) {
	cm, err := serve.NewStrategyCost(hw, s, m, layers, RunOptions{}, cache)
	if err != nil {
		return ServingResult{}, err
	}
	return serve.Run(w, cm, serve.SchedConfig{})
}

// EvaluateServing computes latency order statistics, throughput and goodput
// for a completed serving run under the SLO.
func EvaluateServing(res ServingResult, slo ServingSLO) ServingSummary {
	return serve.Evaluate(res, slo)
}

// DefaultExperiments returns the full-fidelity experiment configuration.
func DefaultExperiments() ExperimentConfig { return experiments.Default() }

// QuickExperiments returns the reduced-fidelity experiment configuration.
func QuickExperiments() ExperimentConfig { return experiments.Quick() }

// ExperimentNames lists the reproducible tables and figures.
func ExperimentNames() []string { return experiments.Names() }

// RunExperiment regenerates one table or figure by ID and returns its
// rendered output.
func RunExperiment(id string, cfg ExperimentConfig) (string, error) {
	return experiments.Run(id, cfg)
}
