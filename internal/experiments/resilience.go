package experiments

import (
	"fmt"

	"cais/internal/attrib"
	"cais/internal/faults"
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

// ResilienceAttribRow is one (family, severity) point's CAIS time
// attribution: class-averaged bucket shares showing which bucket the
// fault's damage lands in (DESIGN.md §12). Populated only when the study
// runs with an attribution aggregator attached (caissim -attrib).
type ResilienceAttribRow struct {
	Family   string
	Severity string
	// GPU-class shares of elapsed.
	Compute, SyncWait, GPUStall float64
	// Switch-plane-class shares of elapsed.
	Transit, Merge, PlaneStall float64
	// FaultStall is the mean fault-overlap share across both classes.
	FaultStall float64
}

// ResilienceResult is the degradation study.
type ResilienceResult struct {
	Rows       []ResilienceRow
	Strategies []string
	// Geomean of CAIS speedup over each baseline across every faulted
	// scenario (severity-zero rows excluded: they are the healthy anchor).
	Geomean map[string]float64
	Waits   []ResilienceWaitRow
	// AttribRows is the attribution section (empty without -attrib).
	AttribRows []ResilienceAttribRow
}

// resilienceScenario is one severity step of a fault family; a nil schedule
// is the healthy anchor and must reproduce the unfaulted run exactly.
type resilienceScenario struct {
	severity string
	sched    *faults.Schedule
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

// resilienceFamilies enumerates the severity sweeps of the study: link
// degradation 0-75%, one and two dead switch planes, and one straggler GPU
// at 1.5-4x compute slowdown. Quick mode trims each sweep to its healthy
// anchor plus one faulted point.
func resilienceFamilies(quick bool) []struct {
	name      string
	scenarios []resilienceScenario
} {
	degrade := []resilienceScenario{
		{"0%", nil},
		{"25%", degradeAll("degrade-25", 0.75)},
		{"50%", degradeAll("degrade-50", 0.50)},
		{"75%", degradeAll("degrade-75", 0.25)},
	}
	planes := []resilienceScenario{
		{"0 dead", nil},
		{"1 dead", killPlanes("plane-kill-1", 1)},
		{"2 dead", killPlanes("plane-kill-2", 2)},
	}
	straggler := []resilienceScenario{
		{"none", nil},
		{"1.5x", straggle("straggler-1.5", 1.5)},
		{"2x", straggle("straggler-2", 2)},
		{"4x", straggle("straggler-4", 4)},
	}
	if quick {
		degrade = []resilienceScenario{degrade[0], degrade[2]}
		planes = planes[:2]
		straggler = []resilienceScenario{straggler[0], straggler[2]}
	}
	return []struct {
		name      string
		scenarios []resilienceScenario
	}{
		{"link degradation", degrade},
		{"dead planes", planes},
		{"straggler GPU0", straggler},
	}
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
	out := &ResilienceResult{Geomean: map[string]float64{}}
	for _, s := range specs {
		out.Strategies = append(out.Strategies, s.Name)
	}
	sub := model.SubLayers(c.primaryModel())[1] // the paper's L2
	hw := c.microHW()

	// Flatten the (family, scenario, strategy) cube into independent
	// simulation points, fan them out, then fold sequentially below in the
	// original nested order (the healthy anchor and geomean samples depend
	// on fold order, not run order).
	families := resilienceFamilies(c.Quick)
	type runKey struct {
		sched *faults.Schedule
		tag   string
		spec  strategy.Spec
	}
	var keys []runKey
	for _, fam := range families {
		for _, sc := range fam.scenarios {
			for _, spec := range specs {
				keys = append(keys, runKey{
					sched: sc.sched,
					tag:   fam.name + "/" + sc.severity + "/" + spec.Name,
					spec:  spec,
				})
			}
		}
	}
	type pointResult struct {
		elapsed sim.Time
		rep     *attrib.Report
	}
	points, err := mapPoints(c, len(keys), func(i int) (pointResult, error) {
		k := keys[i]
		res, err := c.runSubLayer("resilience/"+k.tag, hw, k.spec, sub, strategy.Options{Faults: k.sched})
		if err != nil {
			return pointResult{}, fmt.Errorf("resilience %s: %w", k.tag, err)
		}
		return pointResult{elapsed: res.Elapsed, rep: res.Attrib}, nil
	})
	if err != nil {
		return nil, err
	}

	samples := map[string][]float64{}
	idx := 0
	for _, fam := range families {
		healthy := map[string]sim.Time{}
		for _, sc := range fam.scenarios {
			row := ResilienceRow{
				Family: fam.name, Severity: sc.severity,
				Elapsed: map[string]sim.Time{},
				Speedup: map[string]float64{},
				RelTput: map[string]float64{},
			}
			for _, spec := range specs {
				pt := points[idx]
				e := pt.elapsed
				idx++
				row.Elapsed[spec.Name] = e
				if sc.sched == nil {
					healthy[spec.Name] = e
				}
				if h := healthy[spec.Name]; h > 0 && e > 0 {
					row.RelTput[spec.Name] = float64(h) / float64(e)
				}
				if spec.Name == "CAIS" && pt.rep != nil {
					out.AttribRows = append(out.AttribRows, attribRow(fam.name, sc.severity, pt.rep))
				}
			}
			cais := row.Elapsed["CAIS"]
			for _, name := range out.Strategies {
				if name == "CAIS" || cais == 0 {
					continue
				}
				sp := float64(row.Elapsed[name]) / float64(cais)
				row.Speedup[name] = sp
				if sc.sched != nil {
					samples[name] = append(samples[name], sp)
				}
			}
			out.Rows = append(out.Rows, row)
		}
	}
	for _, s := range out.Strategies {
		if xs := samples[s]; len(xs) > 0 {
			out.Geomean[s] = metrics.Geomean(xs)
		}
	}
	waits, err := resilienceWaits(c, sub)
	if err != nil {
		return nil, err
	}
	out.Waits = waits
	return out, nil
}

// resilienceWaits is the Fig. 13b companion under a straggler: average
// waiting time (per-address arrival spread) for CAIS with and without TB
// coordination, healthy versus one 2x straggler GPU. Coordination should
// keep the spread bounded even when one GPU falls behind.
func resilienceWaits(c Config, sub model.SubLayer) ([]ResilienceWaitRow, error) {
	type step struct {
		name  string
		spec  strategy.Spec
		sched *faults.Schedule
	}
	steps := []step{
		{"CAIS", strategy.CAIS(), nil},
		{"CAIS", strategy.CAIS(), straggle("wait-straggler-2", 2)},
		{"CAIS w/o coordination", strategy.CAISNoCoord(), nil},
		{"CAIS w/o coordination", strategy.CAISNoCoord(), straggle("wait-straggler-2", 2)},
	}
	mhw := c.microHW()
	mhw.MergeTableBytes = -1 // unlimited, as in Fig. 13b
	return mapPoints(c, len(steps), func(i int) (ResilienceWaitRow, error) {
		st := steps[i]
		gpus := "healthy"
		if st.sched != nil {
			gpus = "gpu0 2x slower"
		}
		res, err := c.runSubLayer("resilience/waits/"+st.name+"/"+gpus,
			mhw, st.spec, sub, strategy.Options{Faults: st.sched})
		if err != nil {
			return ResilienceWaitRow{}, fmt.Errorf("resilience waits %s: %w", st.name, err)
		}
		return ResilienceWaitRow{
			Config: st.name, GPUs: gpus,
			SkewUS: res.Stats.AvgSkew().Microseconds(), Elapsed: res.Elapsed,
		}, nil
	})
}

// Render formats the degradation tables.
func (r *ResilienceResult) Render() string {
	baselines := make([]string, 0, len(r.Strategies))
	for _, s := range r.Strategies {
		if s != "CAIS" {
			baselines = append(baselines, s)
		}
	}
	headers := append([]string{"Fault family", "Severity", "CAIS"}, baselines...)
	sp := metrics.NewTable("Resilience: CAIS speedup over baselines under faults (LLaMA-7B L2)", headers...)
	for _, row := range r.Rows {
		cells := []string{row.Family, row.Severity, row.Elapsed["CAIS"].String()}
		for _, b := range baselines {
			cells = append(cells, fmt.Sprintf("%.2fx", row.Speedup[b]))
		}
		sp.AddRow(cells...)
	}
	geo := []string{"geomean (faulted)", "", "1.00x"}
	for _, b := range baselines {
		geo = append(geo, fmt.Sprintf("%.2fx", r.Geomean[b]))
	}
	sp.AddRow(geo...)

	tpHeaders := append([]string{"Fault family", "Severity"}, r.Strategies...)
	tp := metrics.NewTable("Resilience: relative throughput vs own healthy run", tpHeaders...)
	for _, row := range r.Rows {
		cells := []string{row.Family, row.Severity}
		for _, s := range r.Strategies {
			cells = append(cells, fmt.Sprintf("%.3f", row.RelTput[s]))
		}
		tp.AddRow(cells...)
	}

	wt := metrics.NewTable("Resilience: waiting time under a straggler (Fig. 13b companion)",
		"Configuration", "GPUs", "avg wait (us)", "elapsed")
	for _, row := range r.Waits {
		wt.Addf(row.Config, row.GPUs, row.SkewUS, row.Elapsed)
	}
	out := sp.String() + "\n" + tp.String() + "\n" + wt.String()
	if len(r.AttribRows) > 0 {
		at := metrics.NewTable("Resilience: CAIS time attribution under faults (class-averaged share of elapsed, %)",
			"Fault family", "Severity",
			"gpu:compute", "gpu:sync", "gpu:stall",
			"plane:transit", "plane:merge", "plane:stall", "fault")
		pct := func(v float64) string { return fmt.Sprintf("%.1f", v*100) }
		for _, row := range r.AttribRows {
			at.AddRow(row.Family, row.Severity,
				pct(row.Compute), pct(row.SyncWait), pct(row.GPUStall),
				pct(row.Transit), pct(row.Merge), pct(row.PlaneStall),
				pct(row.FaultStall))
		}
		out += "\n" + at.String()
	}
	return out
}

// attribRow folds one CAIS report into the attribution section's row.
func attribRow(family, severity string, rep *attrib.Report) ResilienceAttribRow {
	return ResilienceAttribRow{
		Family: family, Severity: severity,
		Compute:    rep.ClassShare(attrib.ClassGPU, attrib.Compute),
		SyncWait:   rep.ClassShare(attrib.ClassGPU, attrib.SyncWait),
		GPUStall:   rep.ClassShare(attrib.ClassGPU, attrib.QueueStall),
		Transit:    rep.ClassShare(attrib.ClassPlane, attrib.Transit),
		Merge:      rep.ClassShare(attrib.ClassPlane, attrib.Merge),
		PlaneStall: rep.ClassShare(attrib.ClassPlane, attrib.QueueStall),
		FaultStall: (rep.ClassShare(attrib.ClassGPU, attrib.FaultStall) +
			rep.ClassShare(attrib.ClassPlane, attrib.FaultStall)) / 2,
	}
}
