// Command caissim regenerates the paper's tables and figures from the CAIS
// simulation stack, or runs individual workloads under a chosen execution
// strategy.
//
// Usage:
//
//	caissim -experiment fig11            # regenerate one figure/table
//	caissim -experiment all              # regenerate everything
//	caissim -experiment fig14 -quick     # reduced fidelity (fast)
//	caissim -experiment serving -arrival-rate 25 -slo 500   # serving study
//	caissim -list                        # list experiment IDs
//	caissim -strategy CAIS -model llama-7b -layers 1 -training
//	caissim -strategy CAIS -model llama-7b -trace out.json   # Perfetto trace
//	caissim -strategies                  # list strategies
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"cais"
)

func main() {
	var (
		experiment = flag.String("experiment", "", "experiment ID (see -list), or 'all'")
		quick      = flag.Bool("quick", false, "reduced fidelity (fast)")
		list       = flag.Bool("list", false, "list experiment IDs")
		strategies = flag.Bool("strategies", false, "list execution strategies")
		strat      = flag.String("strategy", "", "run one workload under this strategy")
		modelName  = flag.String("model", "llama-7b", "model: mega-gpt-4b | mega-gpt-8b | llama-7b")
		layers     = flag.Int("layers", 1, "transformer layers to simulate")
		training   = flag.Bool("training", false, "simulate training (fwd+bwd) instead of prefill")
		gpus       = flag.Int("gpus", 0, "override the GPU count (default: 8)")
		requestKB  = flag.Int("request-kb", 0, "override the request granularity in KB")
		seed       = flag.Uint64("seed", 0, "RNG seed for simulated jitter (0 = built-in default)")
		parallel   = flag.Int("parallel", 0, "sweep worker pool size for experiments (0 = GOMAXPROCS, 1 = sequential); output is byte-identical at any value")
		noMemo     = flag.Bool("no-memo", false, "disable cross-sweep point memoization; every experiment point simulates cold (output is byte-identical either way)")
		arrival    = flag.Float64("arrival-rate", 0, "serving experiment: collapse the arrival-rate sweep to this rate in requests/second (0 = built-in sweep)")
		sloMs      = flag.Float64("slo", 0, "serving experiment: end-to-end latency SLO in milliseconds (0 = fidelity default)")
		faultsFile = flag.String("faults", "", "JSON fault-injection schedule (strategy runs; see DESIGN.md §8)")
		traceOut   = flag.String("trace", "", "write a Chrome/Perfetto trace of the run to this file (strategy runs)")
		metricsOut = flag.String("metrics-json", "", "write the metric snapshot as JSON to this file (per-run for -strategy; sweep-level memo/cache counters for experiments)")
		attribOn   = flag.Bool("attrib", false, "print the time-attribution breakdown and critical path (DESIGN.md §12)")
		attribJSON = flag.String("attrib-json", "", "write the attribution report as JSON to this file (implies attribution)")
		attribTr   = flag.String("attrib-trace", "", "write the attribution top-contributors view as a Chrome trace to this file (implies attribution)")
		verbose    = flag.Bool("v", false, "log simulation progress to stderr")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	)
	flag.Parse()

	gpusSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "gpus" {
			gpusSet = true
		}
	})

	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on %s\n", *pprofAddr)
	}

	switch {
	case *list:
		for _, n := range cais.ExperimentNames() {
			fmt.Println(n)
		}
	case *strategies:
		for _, s := range cais.Strategies() {
			nvls := ""
			if s.UsesNVLS() {
				nvls = " (in-switch computing)"
			}
			fmt.Printf("%-14s layout=%s%s\n", s.Name, s.Layout, nvls)
		}
		for _, s := range cais.ExtensionStrategies() {
			fmt.Printf("%-14s layout=%s (extension beyond the paper)\n", s.Name, s.Layout)
		}
	case *strat != "":
		runStrategy(strategyRun{
			name: *strat, model: *modelName, layers: *layers, training: *training,
			gpus: *gpus, gpusSet: gpusSet, requestKB: *requestKB, seed: *seed, faultsFile: *faultsFile,
			traceOut: *traceOut, metricsOut: *metricsOut, verbose: *verbose,
			attrib: *attribOn, attribJSON: *attribJSON, attribTrace: *attribTr,
		})
	case *experiment != "":
		if *traceOut != "" {
			fmt.Fprintln(os.Stderr, "note: -trace applies to -strategy runs only; ignored for experiments")
		}
		if *faultsFile != "" {
			fmt.Fprintln(os.Stderr, "note: -faults applies to -strategy runs only; the resilience experiment builds its own schedules")
		}
		runExperiments(experimentRun{
			id: *experiment, quick: *quick, seed: *seed, workers: *parallel, noMemo: *noMemo,
			arrivalRate: *arrival, sloMs: *sloMs,
			metricsOut: *metricsOut,
			attrib:     *attribOn, attribJSON: *attribJSON, attribTrace: *attribTr,
		})
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// usageErr reports an invalid flag value with the accepted IDs and exits
// with the conventional bad-usage status.
func usageErr(what, got string, valid []string) {
	fmt.Fprintf(os.Stderr, "unknown %s %q; valid: %s\n", what, got, strings.Join(valid, ", "))
	os.Exit(2)
}

type experimentRun struct {
	id      string
	quick   bool
	seed    uint64
	workers int
	noMemo  bool

	arrivalRate float64
	sloMs       float64

	metricsOut  string
	attrib      bool
	attribJSON  string
	attribTrace string
}

func runExperiments(r experimentRun) {
	cfg := cais.DefaultExperiments()
	if r.quick {
		cfg = cais.QuickExperiments()
	}
	if r.seed != 0 {
		cfg.HW.Seed = r.seed
	}
	cfg.Workers = r.workers
	// One cache per invocation: points repeated across figure drivers (the
	// shared TP-NVLS / CAIS anchors) simulate once under -experiment all.
	if !r.noMemo {
		cfg.Memo = cais.NewMemoCache()
	}
	cfg.ServingRate = r.arrivalRate
	cfg.ServingSLOMs = r.sloMs
	// The serving driver records per-request latency histograms into
	// cfg.Metrics; the memo gauges join the same snapshot below.
	if r.metricsOut != "" {
		cfg.Metrics = cais.NewMetricsRegistry()
	}
	if r.attrib || r.attribJSON != "" || r.attribTrace != "" {
		cfg.Attrib = cais.NewAttribAggregator()
	}
	ids := []string{r.id}
	if r.id == "all" {
		ids = cais.ExperimentNames()
	} else {
		known := false
		for _, n := range cais.ExperimentNames() {
			if n == r.id {
				known = true
				break
			}
		}
		if !known {
			usageErr("experiment", r.id, append(cais.ExperimentNames(), "all"))
		}
	}
	for _, x := range ids {
		start := time.Now()
		out, err := cais.RunExperiment(x, cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", x, err)
			os.Exit(1)
		}
		fmt.Printf("%s\n\n", out)
		// Wall time goes to stderr so stdout stays byte-stable.
		fmt.Fprintf(os.Stderr, "[%s regenerated in %v]\n", x, time.Since(start).Round(time.Millisecond))
	}
	if r.attrib {
		fmt.Println(cfg.Attrib.Render())
	}
	if r.attribJSON != "" {
		if err := writeTo(r.attribJSON, cfg.Attrib.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "attrib-json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote attribution for %d points to %s\n", cfg.Attrib.Len(), r.attribJSON)
	}
	if r.attribTrace != "" {
		if err := writeTo(r.attribTrace, cfg.Attrib.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "attrib-trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote attribution Chrome trace to %s\n", r.attribTrace)
	}
	if r.metricsOut != "" {
		cais.RegisterMemoMetrics(cfg.Memo, cfg.Metrics)
		if err := writeMetrics(r.metricsOut, cfg.Metrics.Snapshot()); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d metrics to %s\n", cfg.Metrics.Snapshot().Len(), r.metricsOut)
	}
	if cfg.Memo != nil {
		fmt.Fprintf(os.Stderr, "[memo: %d lookups, %d served from cache, %d points simulated]\n",
			cfg.Memo.Lookups(), cfg.Memo.Hits(), cfg.Memo.Misses())
	}
}

type strategyRun struct {
	name      string
	model     string
	layers    int
	training  bool
	gpus      int
	gpusSet   bool
	requestKB int
	seed      uint64

	faultsFile string
	traceOut   string
	metricsOut string
	verbose    bool

	attrib      bool
	attribJSON  string
	attribTrace string
}

// strategyNames lists every accepted -strategy value (baselines, CAIS, its
// ablations, and the extension strategies).
func strategyNames() []string {
	var names []string
	for _, s := range cais.Strategies() {
		names = append(names, s.Name)
	}
	for _, s := range cais.ExtensionStrategies() {
		names = append(names, s.Name)
	}
	return names
}

func runStrategy(r strategyRun) {
	spec, err := cais.StrategyByName(r.name)
	if err != nil {
		usageErr("strategy", r.name, strategyNames())
	}
	var m cais.Model
	switch strings.ToLower(r.model) {
	case "mega-gpt-4b":
		m = cais.MegaGPT4B()
	case "mega-gpt-8b":
		m = cais.MegaGPT8B()
	case "llama-7b":
		m = cais.LLaMA7B()
	default:
		usageErr("model", r.model, []string{"mega-gpt-4b", "mega-gpt-8b", "llama-7b"})
	}
	hw := cais.DGXH100()
	hw.RequestBytes = 32 << 10
	if r.gpusSet {
		hw.NumGPUs = r.gpus
	}
	if r.requestKB > 0 {
		hw.RequestBytes = int64(r.requestKB) << 10
	}
	if r.seed != 0 {
		hw.Seed = r.seed
	}
	if err := hw.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "cannot assemble this topology: %v\n", err)
		os.Exit(2)
	}

	var opts cais.RunOptions
	if r.faultsFile != "" {
		sched, err := cais.LoadFaultSchedule(r.faultsFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "faults: %v\n", err)
			os.Exit(1)
		}
		if err := sched.Validate(hw.NumGPUs, hw.NumSwitchPlanes); err != nil {
			fmt.Fprintf(os.Stderr, "faults: schedule does not fit this topology: %v\n", err)
			os.Exit(1)
		}
		opts.Faults = sched
	}
	if r.traceOut != "" {
		opts.Tracer = cais.NewTracer()
	}
	if r.attrib || r.attribJSON != "" || r.attribTrace != "" {
		opts.Attrib = true
	}
	if r.verbose {
		wallStart := time.Now()
		lastWall := wallStart
		var lastSteps uint64
		opts.ProgressEvery = 1 << 18
		opts.Progress = func(now cais.Time, steps uint64) {
			wall := time.Now()
			rate := float64(steps-lastSteps) / wall.Sub(lastWall).Seconds()
			lastWall, lastSteps = wall, steps
			fmt.Fprintf(os.Stderr, "[%8.1fs] sim time %v, %d events (%.0f events/s)\n",
				wall.Sub(wallStart).Seconds(), now, steps, rate)
		}
	}

	run := cais.RunInferenceOpts
	kind := "inference (prefill)"
	if r.training {
		run = cais.RunTrainingOpts
		kind = "training step"
	}
	start := time.Now()
	res, err := run(hw, spec, m, r.layers, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if r.verbose {
		fmt.Fprintf(os.Stderr, "run finished in %v wall time\n", time.Since(start).Round(time.Millisecond))
	}

	perLayer := res.Elapsed / cais.Time(r.layers)
	full := perLayer * cais.Time(m.Layers)
	fmt.Printf("%s on %s, %s\n", spec.Name, m.Name, kind)
	fmt.Printf("  simulated %d layer(s): %v (%v per layer)\n", r.layers, res.Elapsed, perLayer)
	fmt.Printf("  extrapolated full model (%d layers): %v\n", m.Layers, full)
	fmt.Printf("  avg link utilization: %.1f%%\n", res.AvgUtil*100)
	st := res.Stats
	fmt.Printf("  merged loads: %d  merged reductions: %d  sync releases: %d\n",
		st.MergedLoads, st.MergedReds, st.SyncReleases)
	if st.SkewSamples() > 0 {
		fmt.Printf("  avg request arrival skew: %v\n", st.AvgSkew())
	}
	if r.attrib {
		fmt.Println()
		fmt.Print(res.Attrib.Render())
	}
	if r.attribJSON != "" {
		if err := writeTo(r.attribJSON, res.Attrib.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "attrib-json: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote attribution report to %s\n", r.attribJSON)
	}
	if r.attribTrace != "" {
		if err := writeTo(r.attribTrace, res.Attrib.WriteChromeTrace); err != nil {
			fmt.Fprintf(os.Stderr, "attrib-trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote attribution Chrome trace to %s\n", r.attribTrace)
	}

	if r.traceOut != "" {
		if err := writeTo(r.traceOut, opts.Tracer.WriteJSON); err != nil {
			fmt.Fprintf(os.Stderr, "trace: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d trace events to %s\n", opts.Tracer.Len(), r.traceOut)
	}
	if r.metricsOut != "" {
		if err := writeMetrics(r.metricsOut, res.Telemetry); err != nil {
			fmt.Fprintf(os.Stderr, "metrics: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "wrote %d metrics to %s\n", res.Telemetry.Len(), r.metricsOut)
	}
}

func writeMetrics(path string, snap cais.Telemetry) error {
	return writeTo(path, snap.WriteJSON)
}

// writeTo creates path and streams write into it, closing on all paths.
func writeTo(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
