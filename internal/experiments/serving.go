package experiments

import (
	"fmt"

	"cais/internal/config"
	"cais/internal/faults"
	"cais/internal/metrics"
	"cais/internal/serve"
	"cais/internal/sim"
	"cais/internal/strategy"
)

// ServingRow is one (arrival rate, strategy) point of the latency-throughput
// sweep: the SLO summary of a full serving run.
type ServingRow struct {
	Rate     float64
	Strategy string
	Sum      serve.Summary
}

// ServingFaultRow is one (fault scenario, strategy) point of the
// goodput-under-faults study at the fixed fault-study rate. RelGoodput is
// goodput relative to the same strategy's healthy run (1.0 when healthy).
type ServingFaultRow struct {
	Scenario   string
	Strategy   string
	Sum        serve.Summary
	RelGoodput float64
}

// ServingResult is the serving workload study (DESIGN.md §13): request-level
// latency/throughput across arrival rates, plus goodput retention under the
// resilience study's fault scenarios.
type ServingResult struct {
	SLO        serve.SLO
	Rates      []float64
	FaultRate  float64
	Strategies []string
	Rows       []ServingRow
	FaultRows  []ServingFaultRow
}

// servingModel is the architecture behind the serving cost anchors: the
// miniature model in quick mode, LLaMA-7B at full fidelity.
func (c Config) servingModel() config.Model {
	if c.Quick {
		return quickModel()
	}
	return c.primaryModel()
}

// servingWorkload builds the open-loop workload for one arrival rate. Sizes
// follow the fidelity level; lengths are uniform so prefill shapes exercise
// several quantization anchors.
func (c Config) servingWorkload(rate float64) serve.Workload {
	w := serve.Workload{RatePerSec: rate, Seed: c.HW.Seed}
	if c.Quick {
		w.Requests = 16
		w.Prompt = serve.Uniform(32, 128)
		w.Output = serve.Uniform(4, 8)
	} else {
		w.Requests = 64
		w.Prompt = serve.Uniform(64, 512)
		w.Output = serve.Uniform(8, 32)
	}
	return w
}

// servingRates is the arrival-rate sweep, tuned around each fidelity level's
// service capacity (quick decode iterations cost ~0.3ms, LLaMA-7B ~11ms):
// one rate comfortably under capacity, one near it, one past saturation.
// caissim -arrival-rate collapses the sweep to a single rate.
func (c Config) servingRates() []float64 {
	if c.ServingRate > 0 {
		return []float64{c.ServingRate}
	}
	if c.Quick {
		return []float64{250, 1000, 4000}
	}
	return []float64{10, 25, 50}
}

// servingSLO is the end-to-end latency objective; caissim -slo overrides the
// fidelity default.
func (c Config) servingSLO() serve.SLO {
	msBound := c.ServingSLOMs
	if msBound <= 0 {
		if c.Quick {
			msBound = 10
		} else {
			msBound = 750
		}
	}
	return serve.SLO{E2E: sim.Scale(sim.Millisecond, msBound)}
}

// servingScenario is one fault scenario of the goodput study.
type servingScenario struct {
	name  string
	sched *faults.Schedule
}

// servingScenarios reuses the resilience study's fault constructors plus a
// seeded Monte-Carlo mix from faults.RandomSchedule (drawn from a labeled
// stream of the hardware seed, so the mix is stable across runs and worker
// counts). Quick mode trims to healthy + one deterministic + the random mix.
func servingScenarios(hw config.Hardware, quick bool) []servingScenario {
	rng := sim.NewStreamRNG(hw.Seed, "serving/faults")
	mix := faults.RandomSchedule(rng, "serving-random-mix", hw.NumGPUs, hw.NumSwitchPlanes,
		faults.CampaignSpec{Faults: 3, MaxDeadPlanes: 1})
	all := []servingScenario{
		{"healthy", nil},
		{"link degrade 50%", degradeAll("serving-degrade-50", 0.50)},
		{"1 dead plane", killPlanes("serving-plane-kill-1", 1)},
		{"straggler 2x", straggle("serving-straggler-2", 2)},
		{"random mix", mix},
	}
	if quick {
		return []servingScenario{all[0], all[1], all[4]}
	}
	return all
}

// Serving runs the serving workload study: every strategy serves the same
// request trace through the continuous-batching scheduler, first across the
// arrival-rate sweep (latency-throughput frontier) and then under the fault
// scenarios at the mid sweep rate (goodput retention). Iteration costs come
// from strategy-layer anchor simulations through the shared memo cache —
// shapes repeat heavily across rates and strategies, so most points price
// from cache. Per-request latencies from the rate sweep land in c.Metrics
// (serve.* histograms) during the sequential fold.
func Serving(c Config) (*ServingResult, error) {
	specs := resilienceStrategies()
	rates := c.servingRates()
	slo := c.servingSLO()
	hw := c.e2eHW()
	base := c.servingModel()
	scenarios := servingScenarios(hw, c.Quick)
	faultRate := rates[len(rates)/2]

	// One grid row per sweep rate, then one per fault scenario at the mid
	// sweep rate.
	var points []servingPoint
	for _, rate := range rates {
		points = append(points, servingPoint{tag: fmt.Sprintf("rate-%g", rate), rate: rate})
	}
	for _, sc := range scenarios {
		points = append(points, servingPoint{tag: "faults/" + sc.name, rate: faultRate, sched: sc.sched})
	}
	runs, err := grid(c, points, specs, func(p servingPoint, spec strategy.Spec) (serve.Result, error) {
		cm, err := serve.NewStrategyCost(hw, spec, base, 1, strategy.Options{Faults: p.sched}, c.Memo)
		if err != nil {
			return serve.Result{}, fmt.Errorf("serving/%s/%s: %w", p.tag, spec.Name, err)
		}
		res, err := serve.Run(c.servingWorkload(p.rate), cm, serve.SchedConfig{})
		if err != nil {
			return serve.Result{}, fmt.Errorf("serving/%s/%s: %w", p.tag, spec.Name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	out := &ServingResult{SLO: slo, Rates: rates, FaultRate: faultRate, Strategies: specNames(specs)}
	for i, rate := range rates {
		for j, spec := range specs {
			out.Rows = append(out.Rows, ServingRow{Rate: rate, Strategy: spec.Name, Sum: serve.Evaluate(runs[i][j], slo)})
			// Only healthy sweep latencies feed the exported histograms;
			// faulted runs would skew the distributions.
			runs[i][j].Record(c.Metrics)
		}
	}
	healthyGoodput := map[string]float64{}
	for i, sc := range scenarios {
		for j, spec := range specs {
			row := ServingFaultRow{Scenario: sc.name, Strategy: spec.Name, Sum: serve.Evaluate(runs[len(rates)+i][j], slo)}
			if sc.sched == nil {
				healthyGoodput[spec.Name] = row.Sum.GoodputRPS
			}
			if h := healthyGoodput[spec.Name]; h > 0 {
				row.RelGoodput = row.Sum.GoodputRPS / h
			}
			out.FaultRows = append(out.FaultRows, row)
		}
	}
	return out, nil
}

// servingPoint is one row of the serving study's grid: a sweep rate, or a
// fault scenario at the fault-study rate.
type servingPoint struct {
	tag   string
	rate  float64
	sched *faults.Schedule
}

// Render formats the serving tables.
func (r *ServingResult) Render() string {
	f1 := func(v float64) string { return fmt.Sprintf("%.1f", v) }
	f3 := func(t sim.Time) string { return fmt.Sprintf("%.3f", ms(t)) }

	lt := metrics.NewTable(
		fmt.Sprintf("Serving: latency-throughput sweep (SLO: E2E <= %s)", r.SLO.E2E),
		"Rate (rps)", "Strategy", "tput (rps)", "goodput (rps)", "SLO met",
		"TTFT p50 (ms)", "TTFT p99 (ms)", "TPOT p50 (ms)", "E2E p50 (ms)", "E2E p99 (ms)")
	for _, row := range r.Rows {
		lt.AddRow(fmt.Sprintf("%g", row.Rate), row.Strategy,
			f1(row.Sum.ThroughputRPS), f1(row.Sum.GoodputRPS),
			fmt.Sprintf("%d/%d", row.Sum.SLOMet, row.Sum.Requests),
			f3(row.Sum.TTFT.P50), f3(row.Sum.TTFT.P99),
			f3(row.Sum.TPOT.P50),
			f3(row.Sum.E2E.P50), f3(row.Sum.E2E.P99))
	}

	gf := metrics.NewTable(
		fmt.Sprintf("Serving: goodput under faults (%g rps)", r.FaultRate),
		"Scenario", "Strategy", "goodput (rps)", "SLO met", "E2E p99 (ms)", "vs healthy")
	for _, row := range r.FaultRows {
		gf.AddRow(row.Scenario, row.Strategy,
			f1(row.Sum.GoodputRPS),
			fmt.Sprintf("%d/%d", row.Sum.SLOMet, row.Sum.Requests),
			f3(row.Sum.E2E.P99),
			fmt.Sprintf("%.3f", row.RelGoodput))
	}
	return lt.String() + "\n" + gf.String()
}
