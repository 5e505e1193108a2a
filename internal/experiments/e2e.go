package experiments

import (
	"cais/internal/config"
	"cais/internal/memo"
	"cais/internal/metrics"
	"cais/internal/model"
	"cais/internal/sim"
	"cais/internal/strategy"
	"fmt"
)

// Table1 renders the Table I model settings.
func Table1() string {
	t := metrics.NewTable("Table I: LLM settings used in evaluation",
		"Name", "Hidden", "FFN Hidden", "Heads", "SeqLen", "Batch", "Layers")
	for _, m := range config.TableIModels() {
		t.Addf(m.Name, m.Hidden, m.FFNHidden, m.Heads, m.SeqLen, m.Batch, m.Layers)
	}
	return t.String()
}

// Fig2Row is one GPU-count point of the compute-vs-communication scaling
// study.
type Fig2Row struct {
	GPUs      int
	ComputeMS float64 // per-layer computation time
	CommMS    float64 // per-layer communication time
	Ratio     float64 // comm / compute
}

// Fig2Result is the Fig. 2 sweep.
type Fig2Result struct{ Rows []Fig2Row }

// Fig2 reproduces Fig. 2: computation and communication time per layer for
// LLaMA-7B under SP-NVLS while scaling the GPU count. The paper observes
// communication overtaking computation between 4 and 8 GPUs (~1.6x at 8).
//
// Decomposition: posted writes make kernel spans a poor attribution (data
// movement bleeds into the consumer's span), so computation time is
// measured on an ideal fabric (near-infinite bandwidth, zero latency) and
// communication is the exposed remainder on the real fabric.
func Fig2(c Config) (*Fig2Result, error) {
	counts := []int{1, 2, 4, 8, 16}
	if c.Quick {
		counts = []int{2, 8}
	}
	cfg := c.primaryModel()
	elapsed, err := grid(c, counts, []string{"real", "ideal"}, func(p int, fabric string) (sim.Time, error) {
		hw := c.e2eHW()
		hw.NumGPUs = p
		if fabric == "ideal" {
			hw.LinkBandwidth *= 1e4
			hw.LinkEfficiency = 1
			hw.LinkLatency = 0
			hw.SwitchLatency = 0
		}
		res, err := c.runLayers(fmt.Sprintf("fig2/p%d/%s", p, fabric), hw, strategy.SPNVLS(), cfg, false, 1, strategy.Options{})
		return res.Elapsed, err
	})
	if err != nil {
		return nil, err
	}
	out := &Fig2Result{}
	for i, p := range counts {
		compute := elapsed[i][1]
		comm := max(elapsed[i][0]-compute, 0)
		row := Fig2Row{GPUs: p, ComputeMS: ms(compute), CommMS: ms(comm)}
		if row.ComputeMS > 0 {
			row.Ratio = row.CommMS / row.ComputeMS
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// Render formats the Fig. 2 table.
func (r *Fig2Result) Render() string {
	t := metrics.NewTable("Fig. 2: computation vs communication per layer (LLaMA-7B, SP-NVLS)",
		"GPUs", "compute (ms)", "comm (ms)", "comm/compute")
	for _, row := range r.Rows {
		t.Addf(row.GPUs, row.ComputeMS, row.CommMS, row.Ratio)
	}
	return t.String()
}

// SpeedupRow is one (model, workload) row of speedups of CAIS over every
// baseline.
type SpeedupRow struct {
	Model string
	// Workload is "inference" or "training" in Fig. 11 and the sub-layer
	// ID in Fig. 12.
	Workload string
	// Elapsed per strategy (simulated per-layer chain time).
	Elapsed map[string]sim.Time
	// Speedup of CAIS over each strategy.
	Speedup map[string]float64
}

// SpeedupResult is a speedup study of CAIS over every strategy: Fig. 11
// (end to end) and Fig. 12 (sub-layers) differ only in their points, title
// and second column.
type SpeedupResult struct {
	Title      string
	RowHeader  string // second column: "Workload" or "Sub-layer"
	Rows       []SpeedupRow
	Strategies []string
	// Geomean of CAIS speedup over each baseline across rows.
	Geomean map[string]float64
}

// speedupPoint is one row of a speedup study: its model and workload, and
// the run of one strategy on its point.
type speedupPoint struct {
	model, workload string
	run             func(label string, spec strategy.Spec) (memo.Entry, error)
}

// Fig11 reproduces Fig. 11: end-to-end speedup of CAIS over the nine
// baselines plus CAIS-Base, for training and inference (prefill) on the
// Table I models.
func Fig11(c Config) (*SpeedupResult, error) {
	workloads := []struct {
		name     string
		training bool
	}{{"inference", false}, {"training", true}}
	if c.Quick {
		workloads = workloads[:1]
	}
	var points []speedupPoint
	for _, cfg := range c.models() {
		for _, w := range workloads {
			points = append(points, speedupPoint{cfg.Name, w.name, func(label string, spec strategy.Spec) (memo.Entry, error) {
				return c.runLayers(label, c.e2eHW(), spec, cfg, w.training, 1, strategy.Options{})
			}})
		}
	}
	return speedupStudy(c, "fig11", "Fig. 11: CAIS speedup over baselines (end-to-end per-layer chain)", "Workload", points)
}

// Fig12 reproduces Fig. 12: speedups on the four communication-intensive
// sub-layers (GEMM-RS + LN + AG-GEMM pipelines).
func Fig12(c Config) (*SpeedupResult, error) {
	hw := c.microHW()
	var points []speedupPoint
	for _, cfg := range c.models() {
		subs := model.SubLayers(cfg)
		if c.Quick {
			subs = subs[:2]
		}
		for _, sub := range subs {
			points = append(points, speedupPoint{cfg.Name, sub.ID, func(label string, spec strategy.Spec) (memo.Entry, error) {
				return c.runSubLayer(label, hw, spec, sub, strategy.Options{})
			}})
		}
	}
	return speedupStudy(c, "fig12", "Fig. 12: CAIS speedup on sub-layers L1-L4", "Sub-layer", points)
}

// speedupStudy runs every strategy on each point, one grid cell per
// (point, strategy), and folds the speedups of CAIS over the others in
// point order.
func speedupStudy(c Config, id, title, rowHeader string, points []speedupPoint) (*SpeedupResult, error) {
	specs := strategy.All()
	elapsed, err := grid(c, points, specs, func(p speedupPoint, spec strategy.Spec) (sim.Time, error) {
		res, err := p.run(id+"/"+p.model+"/"+p.workload+"/"+spec.Name, spec)
		return res.Elapsed, err
	})
	if err != nil {
		return nil, err
	}
	out := &SpeedupResult{Title: title, RowHeader: rowHeader, Strategies: specNames(specs)}
	var speedups []map[string]float64
	for i, p := range points {
		row := SpeedupRow{Model: p.model, Workload: p.workload, Elapsed: byStrategy(out.Strategies, elapsed[i])}
		row.Speedup = caisSpeedups(out.Strategies, row.Elapsed)
		out.Rows = append(out.Rows, row)
		speedups = append(speedups, row.Speedup)
	}
	out.Geomean = geomeans(out.Strategies, speedups)
	return out, nil
}

// Render formats the speedup table.
func (r *SpeedupResult) Render() string {
	t := metrics.NewTable(r.Title, append([]string{"Model", r.RowHeader}, r.Strategies...)...)
	for _, row := range r.Rows {
		t.AddRow(append([]string{row.Model, row.Workload}, speedupCells(r.Strategies, row.Elapsed, row.Speedup)...)...)
	}
	t.AddRow(append([]string{"geomean", ""}, geomeanCells(r.Strategies, r.Geomean)...)...)
	return t.String()
}

// specNames lists the strategies' names in order.
func specNames(specs []strategy.Spec) []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// byStrategy keys one grid row's elapsed times by strategy name.
func byStrategy(strategies []string, row []sim.Time) map[string]sim.Time {
	m := make(map[string]sim.Time, len(strategies))
	for i, s := range strategies {
		m[s] = row[i]
	}
	return m
}

// caisSpeedups is one row's speedup of CAIS over every other strategy:
// that strategy's elapsed time over CAIS's. A row without a CAIS time has
// none.
func caisSpeedups(strategies []string, elapsed map[string]sim.Time) map[string]float64 {
	sp := map[string]float64{}
	if cais := elapsed["CAIS"]; cais != 0 {
		for _, s := range strategies {
			if s != "CAIS" {
				sp[s] = float64(elapsed[s]) / float64(cais)
			}
		}
	}
	return sp
}

// geomeans is each strategy's geometric-mean CAIS speedup across the rows,
// sampled in row order.
func geomeans(strategies []string, rows []map[string]float64) map[string]float64 {
	g := map[string]float64{}
	for _, s := range strategies {
		var xs []float64
		for _, sp := range rows {
			if x, ok := sp[s]; ok {
				xs = append(xs, x)
			}
		}
		if len(xs) > 0 {
			g[s] = metrics.Geomean(xs)
		}
	}
	return g
}

// speedupCells renders one row's strategy columns in strategy order: the
// CAIS column is its elapsed time, every other its CAIS speedup.
func speedupCells(strategies []string, elapsed map[string]sim.Time, speedup map[string]float64) []string {
	cells := make([]string, len(strategies))
	for i, s := range strategies {
		if s == "CAIS" {
			cells[i] = elapsed[s].String()
		} else {
			cells[i] = fmt.Sprintf("%.2fx", speedup[s])
		}
	}
	return cells
}

// geomeanCells renders the geomean row's strategy columns; CAIS's is 1.00x.
func geomeanCells(strategies []string, geomean map[string]float64) []string {
	cells := make([]string, len(strategies))
	for i, s := range strategies {
		g := 1.0
		if s != "CAIS" {
			g = geomean[s]
		}
		cells[i] = fmt.Sprintf("%.2fx", g)
	}
	return cells
}

// Fig17Row is one GPU-count point of the scalability study.
type Fig17Row struct {
	GPUs int
	// Per-GPU throughput normalized to 8-GPU CAIS.
	CAIS        float64
	CoCoNetNVLS float64
}

// Fig17Result is the scalability study.
type Fig17Result struct{ Rows []Fig17Row }

// Fig17 reproduces Fig. 17: per-GPU computation throughput of CAIS and
// CoCoNet-NVLS for 8..32 GPUs, with the hidden dimension scaled
// proportionally to the GPU count; normalized to 8-GPU CAIS. The paper
// reports a <5% drop at 32 GPUs.
func Fig17(c Config) (*Fig17Result, error) {
	counts := []int{8, 16, 24, 32}
	if c.Quick {
		counts = []int{4, 8}
	}
	base := counts[0]
	cfg0 := c.primaryModel()
	type point struct{ cais, coco float64 }
	points, err := mapPoints(c, len(counts), func(i int) (point, error) {
		p := counts[i]
		// Fine request granularity: at coarse chunks the merge table
		// quantizes to one session per port and thrashes at high GPU
		// counts, which is a simulation artifact, not a CAIS property.
		hw := c.microHW()
		hw.NumGPUs = p
		scale := float64(p) / float64(base)
		cfg := cfg0.Scale(scale)
		cfg.Layers = cfg0.Layers
		var pt point
		for _, spec := range []strategy.Spec{strategy.CAIS(), strategy.CoCoNetNVLS()} {
			res, err := c.runLayers(fmt.Sprintf("fig17/p%d/%s", p, spec.Name),
				hw, spec, cfg, false, 1, strategy.Options{})
			if err != nil {
				return point{}, err
			}
			flopsPerGPU := layerFlopsPerGPU(cfg, p)
			tput := flopsPerGPU / res.Elapsed.Seconds()
			if spec.Name == "CAIS" {
				pt.cais = tput
			} else {
				pt.coco = tput
			}
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	norm := points[0].cais
	out := &Fig17Result{}
	for i, p := range counts {
		out.Rows = append(out.Rows, Fig17Row{
			GPUs:        p,
			CAIS:        points[i].cais / norm,
			CoCoNetNVLS: points[i].coco / norm,
		})
	}
	return out, nil
}

// layerFlopsPerGPU approximates one transformer layer's GEMM+attention
// FLOPs per GPU under TP degree p.
func layerFlopsPerGPU(m config.Model, p int) float64 {
	tokens := float64(m.Tokens())
	h := float64(m.Hidden)
	f := float64(m.FFNHidden)
	attn := 4 * tokens * float64(m.SeqLen) * float64(m.HeadDim()) * float64(m.Heads)
	gemms := 2*tokens*3*h*h + 2*tokens*h*h + 2*tokens*f*h + 2*tokens*h*f
	return (gemms + attn) / float64(p)
}

// Render formats the Fig. 17 table.
func (r *Fig17Result) Render() string {
	t := metrics.NewTable("Fig. 17: per-GPU throughput vs GPU count (normalized to first CAIS point)",
		"GPUs", "CAIS", "CoCoNet-NVLS")
	for _, row := range r.Rows {
		t.Addf(row.GPUs, row.CAIS, row.CoCoNetNVLS)
	}
	return t.String()
}

// Table2Row is one scaled-down-validation configuration.
type Table2Row struct {
	Setup   string
	Hidden  int
	FFN     int
	Heads   int
	SMs     int
	Speedup float64 // CAIS over TP-NVLS
}

// Table2Result is the scaled-down validation.
type Table2Result struct{ Rows []Table2Row }

// Table2 reproduces Table II: the CAIS-over-TP-NVLS speedup under the
// full-scale configuration (132 SMs, full matrix dims) and the half-scale
// one (66 SMs, halved dims); the paper reports 1.43 vs 1.40.
func Table2(c Config) (*Table2Result, error) {
	full := config.Model{Name: "Full", Hidden: 8192, FFNHidden: 22528, Heads: 64,
		SeqLen: c.primaryModel().SeqLen, Batch: c.primaryModel().Batch, Layers: 1}
	half := config.Model{Name: "Half", Hidden: 4096, FFNHidden: 11264, Heads: 32,
		SeqLen: full.SeqLen, Batch: full.Batch, Layers: 1}
	if c.Quick {
		// Quick mode shifts both setups one halving down so the pair
		// stays realistically sized but cheap.
		full = half
		full.Name = "Full"
		half = config.Model{Name: "Half", Hidden: 2048, FFNHidden: 5632, Heads: 16,
			SeqLen: full.SeqLen, Batch: full.Batch, Layers: 1}
	}
	fullSMs, halfSMs := 2*c.HW.SMsPerGPU, c.HW.SMsPerGPU
	if c.Quick {
		fullSMs, halfSMs = c.HW.SMsPerGPU, c.HW.SMsPerGPU/2
	}
	type setup struct {
		cfg config.Model
		sms int
	}
	setups := []setup{{full, fullSMs}, {half, halfSMs}}
	runs, err := grid(c, setups, caisVsTPNVLS(), func(st setup, spec strategy.Spec) (memo.Entry, error) {
		hw := c.e2eHW()
		hw.SMsPerGPU = st.sms
		return c.runLayers("table2/"+st.cfg.Name+"/"+spec.Name, hw, spec, st.cfg, false, 1, strategy.Options{})
	})
	if err != nil {
		return nil, err
	}
	out := &Table2Result{}
	for i, st := range setups {
		out.Rows = append(out.Rows, Table2Row{
			Setup: st.cfg.Name, Hidden: st.cfg.Hidden, FFN: st.cfg.FFNHidden,
			Heads: st.cfg.Heads, SMs: st.sms,
			Speedup: runs[i][0].Speedup(runs[i][1]),
		})
	}
	return out, nil
}

// caisVsTPNVLS is the column pair of Table II and the granularity
// ablation: CAIS beside TP-NVLS.
func caisVsTPNVLS() []strategy.Spec { return []strategy.Spec{strategy.CAIS(), strategy.TPNVLS()} }

// Render formats the Table II table.
func (r *Table2Result) Render() string {
	t := metrics.NewTable("Table II: scaled-down validation (CAIS speedup over TP-NVLS)",
		"Setup", "Hidden", "FFN Hidden", "Heads", "#SM", "Speedup")
	for _, row := range r.Rows {
		t.Addf(row.Setup, row.Hidden, row.FFN, row.Heads, row.SMs, fmt.Sprintf("%.2f", row.Speedup))
	}
	return t.String()
}
