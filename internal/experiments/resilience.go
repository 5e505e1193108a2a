package experiments

import (
	"fmt"
	"slices"

	"cais/internal/faults"
	"cais/internal/memo"
	"cais/internal/metrics"
	"cais/internal/model"
	"cais/internal/sim"
	"cais/internal/strategy"
)

// ResilienceRow is one (fault family, severity) point: elapsed time per
// strategy, CAIS speedup over each baseline, and each strategy's relative
// throughput versus its own healthy run (1.0 at severity zero, expected
// monotone non-increasing as severity rises).
type ResilienceRow struct {
	Family   string
	Severity string
	Elapsed  map[string]sim.Time
	Speedup  map[string]float64
	RelTput  map[string]float64
}

// ResilienceWaitRow is one straggler waiting-time measurement (the Fig. 13b
// companion): average per-address arrival spread with and without the TB
// coordination mechanisms, healthy versus one straggler GPU.
type ResilienceWaitRow struct {
	Config  string
	GPUs    string // "healthy" or the straggler description
	SkewUS  float64
	Elapsed sim.Time
}

// ResilienceResult is the degradation study.
type ResilienceResult struct {
	Rows       []ResilienceRow
	Strategies []string
	// Geomean of CAIS speedup over each baseline across every faulted
	// scenario (severity-zero rows excluded: they are the healthy anchor).
	Geomean map[string]float64
	Waits   []ResilienceWaitRow
}

// resilienceScenario is one (fault family, severity) row of the study; a
// nil schedule is the family's healthy anchor and must reproduce the
// unfaulted run exactly.
type resilienceScenario struct {
	family, severity string
	sched            *faults.Schedule
}

// degradeAll builds a permanent all-link bandwidth degradation schedule.
func degradeAll(name string, factor float64) *faults.Schedule {
	return &faults.Schedule{Name: name, Faults: []faults.Fault{
		{Kind: faults.LinkDegrade, At: 0, Plane: faults.All, GPU: faults.All, Factor: factor},
	}}
}

// killPlanes builds a schedule taking the first n planes down at t=0 — the
// "boot with dead planes" scenario; address-hash re-routing spreads their
// traffic over the survivors.
func killPlanes(name string, n int) *faults.Schedule {
	s := &faults.Schedule{Name: name}
	for p := 0; p < n; p++ {
		s.Faults = append(s.Faults, faults.Fault{Kind: faults.PlaneDown, At: 0, Plane: p, GPU: faults.All})
	}
	return s
}

// straggle builds a schedule slowing GPU 0's compute by the factor.
func straggle(name string, factor float64) *faults.Schedule {
	return &faults.Schedule{Name: name, Faults: []faults.Fault{
		{Kind: faults.Straggler, At: 0, GPU: 0, Plane: faults.All, Factor: factor},
	}}
}

// resilienceScenarios enumerates the study's rows, family by family: link
// degradation 0-75%, one and two dead switch planes, and one straggler GPU
// at 1.5-4x compute slowdown, each opening with its healthy anchor. Quick
// mode trims each family to its anchor plus one faulted point.
func resilienceScenarios(quick bool) []resilienceScenario {
	degrade := []resilienceScenario{
		{"link degradation", "0%", nil},
		{"link degradation", "25%", degradeAll("degrade-25", 0.75)},
		{"link degradation", "50%", degradeAll("degrade-50", 0.50)},
		{"link degradation", "75%", degradeAll("degrade-75", 0.25)},
	}
	planes := []resilienceScenario{
		{"dead planes", "0 dead", nil},
		{"dead planes", "1 dead", killPlanes("plane-kill-1", 1)},
		{"dead planes", "2 dead", killPlanes("plane-kill-2", 2)},
	}
	straggler := []resilienceScenario{
		{"straggler GPU0", "none", nil},
		{"straggler GPU0", "1.5x", straggle("straggler-1.5", 1.5)},
		{"straggler GPU0", "2x", straggle("straggler-2", 2)},
		{"straggler GPU0", "4x", straggle("straggler-4", 4)},
	}
	if quick {
		degrade = []resilienceScenario{degrade[0], degrade[2]}
		planes = planes[:2]
		straggler = []resilienceScenario{straggler[0], straggler[2]}
	}
	return slices.Concat(degrade, planes, straggler)
}

// resilienceStrategies are the compared executions: CAIS against the three
// strongest baseline families of Fig. 11.
func resilienceStrategies() []strategy.Spec {
	return []strategy.Spec{strategy.CAIS(), strategy.TPNVLS(), strategy.CoCoNetNVLS(), strategy.T3()}
}

// Resilience runs the degradation study: every strategy on the L2
// sub-layer under each fault scenario, measuring how gracefully throughput
// decays with fault severity and whether CAIS keeps its advantage under
// faults. Severity-zero rows run with no schedule installed and therefore
// reproduce the healthy baseline bit-for-bit.
func Resilience(c Config) (*ResilienceResult, error) {
	specs := resilienceStrategies()
	sub := model.SubLayers(c.primaryModel())[1] // the paper's L2
	hw := c.microHW()
	scenarios := resilienceScenarios(c.Quick)
	elapsed, err := grid(c, scenarios, specs, func(sc resilienceScenario, spec strategy.Spec) (sim.Time, error) {
		res, err := c.runSubLayer("resilience/"+sc.family+"/"+sc.severity+"/"+spec.Name, hw, spec, sub, strategy.Options{Faults: sc.sched})
		return res.Elapsed, err
	})
	if err != nil {
		return nil, err
	}

	// The fold runs in row order: each family's healthy anchor comes first
	// and is the reference of the rows after it.
	out := &ResilienceResult{Strategies: specNames(specs)}
	var healthy map[string]sim.Time
	var faulted []map[string]float64
	for i, sc := range scenarios {
		row := ResilienceRow{
			Family: sc.family, Severity: sc.severity,
			Elapsed: byStrategy(out.Strategies, elapsed[i]),
			RelTput: map[string]float64{},
		}
		if sc.sched == nil {
			healthy = row.Elapsed
		}
		for _, s := range out.Strategies {
			if h, e := healthy[s], row.Elapsed[s]; h > 0 && e > 0 {
				row.RelTput[s] = float64(h) / float64(e)
			}
		}
		row.Speedup = caisSpeedups(out.Strategies, row.Elapsed)
		if sc.sched != nil {
			faulted = append(faulted, row.Speedup)
		}
		out.Rows = append(out.Rows, row)
	}
	out.Geomean = geomeans(out.Strategies, faulted)
	if out.Waits, err = resilienceWaits(c, sub); err != nil {
		return nil, err
	}
	return out, nil
}

// resilienceWaits is the Fig. 13b companion under a straggler: average
// waiting time (per-address arrival spread) for CAIS with and without TB
// coordination, healthy versus one 2x straggler GPU. Coordination should
// keep the spread bounded even when one GPU falls behind.
func resilienceWaits(c Config, sub model.SubLayer) ([]ResilienceWaitRow, error) {
	configs := []variant{{"CAIS", strategy.CAIS()}, {"CAIS w/o coordination", strategy.CAISNoCoord()}}
	gpus := []resilienceScenario{{severity: "healthy"}, {severity: "gpu0 2x slower", sched: straggle("wait-straggler-2", 2)}}
	mhw := c.microHW()
	mhw.MergeTableBytes = -1 // unlimited, as in Fig. 13b
	runs, err := grid(c, configs, gpus, func(v variant, g resilienceScenario) (memo.Entry, error) {
		return c.runSubLayer("resilience/waits/"+v.name+"/"+g.severity, mhw, v.spec, sub, strategy.Options{Faults: g.sched})
	})
	if err != nil {
		return nil, err
	}
	var rows []ResilienceWaitRow
	for i, v := range configs {
		for j, g := range gpus {
			rows = append(rows, ResilienceWaitRow{
				Config: v.name, GPUs: g.severity,
				SkewUS: runs[i][j].Stats.AvgSkew().Microseconds(), Elapsed: runs[i][j].Elapsed,
			})
		}
	}
	return rows, nil
}

// Render formats the degradation tables.
func (r *ResilienceResult) Render() string {
	headers := append([]string{"Fault family", "Severity"}, r.Strategies...)
	sp := metrics.NewTable("Resilience: CAIS speedup over baselines under faults (LLaMA-7B L2)", headers...)
	tp := metrics.NewTable("Resilience: relative throughput vs own healthy run", headers...)
	for _, row := range r.Rows {
		sp.AddRow(append([]string{row.Family, row.Severity}, speedupCells(r.Strategies, row.Elapsed, row.Speedup)...)...)
		cells := []string{row.Family, row.Severity}
		for _, s := range r.Strategies {
			cells = append(cells, fmt.Sprintf("%.3f", row.RelTput[s]))
		}
		tp.AddRow(cells...)
	}
	sp.AddRow(append([]string{"geomean (faulted)", ""}, geomeanCells(r.Strategies, r.Geomean)...)...)

	wt := metrics.NewTable("Resilience: waiting time under a straggler (Fig. 13b companion)",
		"Configuration", "GPUs", "avg wait (us)", "elapsed")
	for _, row := range r.Waits {
		wt.Addf(row.Config, row.GPUs, row.SkewUS, row.Elapsed)
	}
	return sp.String() + "\n" + tp.String() + "\n" + wt.String()
}
