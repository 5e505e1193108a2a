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
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"strings"
	"time"

	"cais"
)

// options holds every flag; each is named once, in parseFlags.
type options struct {
	experiment, strategy, model string
	quick, list, strategies     bool
	layers                      int
	training                    bool
	gpus, requestKB             int
	gpusSet                     bool
	seed                        uint64
	parallel                    int
	noMemo                      bool
	arrivalRate, sloMs          float64

	faultsFile, traceOut, metricsOut string
	attrib                           bool
	attribJSON, attribTrace          string
	verbose                          bool
	pprofAddr                        string
}

func parseFlags() options {
	var o options
	flag.StringVar(&o.experiment, "experiment", "", "experiment ID (see -list), or 'all'")
	flag.BoolVar(&o.quick, "quick", false, "reduced fidelity (fast)")
	flag.BoolVar(&o.list, "list", false, "list experiment IDs")
	flag.BoolVar(&o.strategies, "strategies", false, "list execution strategies")
	flag.StringVar(&o.strategy, "strategy", "", "run one workload under this strategy")
	flag.StringVar(&o.model, "model", "llama-7b", "model: mega-gpt-4b | mega-gpt-8b | llama-7b")
	flag.IntVar(&o.layers, "layers", 1, "transformer layers to simulate")
	flag.BoolVar(&o.training, "training", false, "simulate training (fwd+bwd) instead of prefill")
	flag.IntVar(&o.gpus, "gpus", 0, "override the GPU count (default: 8)")
	flag.IntVar(&o.requestKB, "request-kb", 0, "override the request granularity in KB")
	flag.Uint64Var(&o.seed, "seed", 0, "RNG seed for simulated jitter (0 = built-in default)")
	flag.IntVar(&o.parallel, "parallel", 0, "sweep worker pool size for experiments (0 = GOMAXPROCS, 1 = sequential); output is byte-identical at any value")
	flag.BoolVar(&o.noMemo, "no-memo", false, "disable cross-sweep point memoization; every experiment point simulates cold (output is byte-identical either way)")
	flag.Float64Var(&o.arrivalRate, "arrival-rate", 0, "serving experiment: collapse the arrival-rate sweep to this rate in requests/second (0 = built-in sweep)")
	flag.Float64Var(&o.sloMs, "slo", 0, "serving experiment: end-to-end latency SLO in milliseconds (0 = fidelity default)")
	flag.StringVar(&o.faultsFile, "faults", "", "JSON fault-injection schedule (strategy runs; see DESIGN.md §8)")
	flag.StringVar(&o.traceOut, "trace", "", "write a Chrome/Perfetto trace of the run to this file (strategy runs)")
	flag.StringVar(&o.metricsOut, "metrics-json", "", "write the metric snapshot as JSON to this file (per-run for -strategy; sweep-level memo/cache counters for experiments)")
	flag.BoolVar(&o.attrib, "attrib", false, "print the time-attribution breakdown and critical path (DESIGN.md §12)")
	flag.StringVar(&o.attribJSON, "attrib-json", "", "write the attribution report as JSON to this file (implies attribution)")
	flag.StringVar(&o.attribTrace, "attrib-trace", "", "write the attribution top-contributors view as a Chrome trace to this file (implies attribution)")
	flag.BoolVar(&o.verbose, "v", false, "log simulation progress to stderr")
	flag.StringVar(&o.pprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. :6060)")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "gpus" {
			o.gpusSet = true
		}
	})
	// The serving overrides must be finite and non-negative (0 keeps the
	// default); an SLO past one simulated day would overflow the sim clock.
	if r := o.arrivalRate; !(r >= 0 && r <= math.MaxFloat64) {
		fmt.Fprintf(os.Stderr, "invalid -arrival-rate %g: want a finite rate >= 0\n", r)
		os.Exit(2)
	}
	if ms := o.sloMs; !(ms >= 0 && ms <= 24*3600*1000) {
		fmt.Fprintf(os.Stderr, "invalid -slo %g: want a latency in [0, 86400000] ms (one simulated day)\n", ms)
		os.Exit(2)
	}
	return o
}

func main() {
	o := parseFlags()

	if o.pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(o.pprofAddr, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pprof: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pprof listening on %s\n", o.pprofAddr)
	}

	switch {
	case o.list:
		for _, n := range cais.ExperimentNames() {
			fmt.Println(n)
		}
	case o.strategies:
		for _, s := range cais.Strategies() {
			nvls := ""
			if s.UsesNVLS() {
				nvls = " (in-switch computing)"
			}
			fmt.Printf("%-14s layout=%s%s\n", s.Name, s.Layout(), nvls)
		}
		for _, s := range cais.ExtensionStrategies() {
			fmt.Printf("%-14s layout=%s (extension beyond the paper)\n", s.Name, s.Layout())
		}
	case o.strategy != "":
		runStrategy(o)
	case o.experiment != "":
		if o.traceOut != "" {
			fmt.Fprintln(os.Stderr, "note: -trace applies to -strategy runs only; ignored for experiments")
		}
		if o.faultsFile != "" {
			fmt.Fprintln(os.Stderr, "note: -faults applies to -strategy runs only; the resilience experiment builds its own schedules")
		}
		runExperiments(o)
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// attributing reports whether any attribution output was asked for.
func (o options) attributing() bool {
	return o.attrib || o.attribJSON != "" || o.attribTrace != ""
}

// usageErr reports an invalid flag value with the accepted IDs and exits
// with the conventional bad-usage status.
func usageErr(what, got string, valid []string) {
	fmt.Fprintf(os.Stderr, "unknown %s %q; valid: %s\n", what, got, strings.Join(valid, ", "))
	os.Exit(2)
}

func runExperiments(r options) {
	cfg := cais.DefaultExperiments()
	if r.quick {
		cfg = cais.QuickExperiments()
	}
	if r.seed != 0 {
		cfg.HW.Seed = r.seed
	}
	cfg.Workers = r.parallel
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
	if r.attributing() {
		cfg.Attrib = cais.NewAttribAggregator()
	}
	ids := []string{r.experiment}
	if r.experiment == "all" {
		ids = cais.ExperimentNames()
	} else {
		known := false
		for _, n := range cais.ExperimentNames() {
			if n == r.experiment {
				known = true
				break
			}
		}
		if !known {
			usageErr("experiment", r.experiment, append(cais.ExperimentNames(), "all"))
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
	writeAttribution(r, cfg.Attrib, fmt.Sprintf("attribution for %d points", cfg.Attrib.Len()))
	if r.metricsOut != "" {
		cais.RegisterMemoMetrics(cfg.Memo, cfg.Metrics)
		writeMetrics(r.metricsOut, cfg.Metrics.Snapshot())
	}
	if cfg.Memo != nil {
		fmt.Fprintf(os.Stderr, "[memo: %d lookups, %d served from cache, %d points simulated]\n",
			cfg.Memo.Lookups(), cfg.Memo.Hits(), cfg.Memo.Misses())
	}
}

func runStrategy(r options) {
	spec, err := cais.StrategyByName(r.strategy)
	if err != nil {
		// The error lists every accepted -strategy value.
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
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
			fmt.Fprintf(os.Stderr, "faults: invalid schedule: %v\n", err)
			os.Exit(1)
		}
		opts.Faults = sched
	}
	if r.traceOut != "" {
		opts.Tracer = cais.NewTracer()
	}
	opts.Attrib = r.attributing()
	if r.verbose {
		wallStart := time.Now()
		lastWall := wallStart
		var lastSteps uint64
		opts.Progress = func(now cais.Time, steps uint64) {
			wall := time.Now()
			rate := float64(steps-lastSteps) / wall.Sub(lastWall).Seconds()
			lastWall, lastSteps = wall, steps
			fmt.Fprintf(os.Stderr, "[%8.1fs] sim time %v, %d events (%.0f events/s)\n",
				wall.Sub(wallStart).Seconds(), now, steps, rate)
		}
	}

	run := cais.RunInference
	kind := "inference (prefill)"
	if r.training {
		run = cais.RunTraining
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
	writeAttribution(r, res.Attrib, "attribution report")
	writeFile("trace", r.traceOut, opts.Tracer.WriteJSON, fmt.Sprintf("%d trace events", opts.Tracer.Len()))
	writeMetrics(r.metricsOut, res.Telemetry)
}

// attribution is what -attrib-json and -attrib-trace write: one run's
// report or a sweep's aggregator.
type attribution interface {
	WriteJSON(io.Writer) error
	WriteChromeTrace(io.Writer) error
}

// writeAttribution writes the attribution files the flags name; what
// describes the JSON file on stderr.
func writeAttribution(o options, a attribution, what string) {
	writeFile("attrib-json", o.attribJSON, a.WriteJSON, what)
	writeFile("attrib-trace", o.attribTrace, a.WriteChromeTrace, "attribution Chrome trace")
}

func writeMetrics(path string, snap cais.Telemetry) {
	writeFile("metrics", path, snap.WriteJSON, fmt.Sprintf("%d metrics", snap.Len()))
}

// writeFile writes path, when a flag named it, and reports it on stderr as
// "wrote <what> to <path>". A failure exits 1, prefixed by the flag's
// name.
func writeFile(name, path string, write func(io.Writer) error, what string) {
	if path == "" {
		return
	}
	if err := writeTo(path, write); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s to %s\n", what, path)
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
