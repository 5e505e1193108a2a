package experiments

import (
	"fmt"

	"cais/internal/kernel"
	"cais/internal/metrics"
	"cais/internal/model"
	"cais/internal/sim"
	"cais/internal/strategy"
)

// Fig13aRow is one sub-layer's minimal required merge-table size.
type Fig13aRow struct {
	Model    string
	SubLayer string
	// Per-port high-water marks with an unlimited table, in KB.
	CoordKB   float64
	UncoordKB float64
}

// Fig13aResult is the minimal-table-size study.
type Fig13aResult struct {
	Rows []Fig13aRow
	// ReductionPct is the average reduction in required table size from
	// coordination (the paper reports 87%).
	ReductionPct float64
}

// Fig13a reproduces Fig. 13(a): the minimal merging-table size required to
// merge all eligible requests, measured as the per-port occupancy
// high-water mark with an unlimited table, with and without merging-aware
// TB coordination.
func Fig13a(c Config) (*Fig13aResult, error) {
	// "Merge all eligible requests": an unlimited table and no
	// forward-progress timeout, so every session waits for its full
	// request set and the high-water mark is the true buffering
	// requirement.
	hw := c.microHW()
	hw.MergeTableBytes = -1
	hw.MergeTimeout = 0
	cells := c.microCells()
	hwm, err := grid(c, cells, caisVsNoCoord(), func(cl microCell, v variant) (int64, error) {
		res, err := c.runSubLayer("fig13a/"+cl.model+"/"+cl.sub.ID+"/"+v.name, hw, v.spec, cl.sub, strategy.Options{})
		return res.MergeHWM, err
	})
	if err != nil {
		return nil, err
	}
	out := &Fig13aResult{}
	var sumRatio float64
	var n int
	for i, cl := range cells {
		row := Fig13aRow{
			Model: cl.model, SubLayer: cl.sub.ID,
			CoordKB:   float64(hwm[i][0]) / 1024,
			UncoordKB: float64(hwm[i][1]) / 1024,
		}
		out.Rows = append(out.Rows, row)
		if row.UncoordKB > 0 {
			sumRatio += 1 - row.CoordKB/row.UncoordKB
			n++
		}
	}
	if n > 0 {
		out.ReductionPct = sumRatio / float64(n) * 100
	}
	return out, nil
}

// microCell is one (model, sub-layer) row of the microstudies.
type microCell struct {
	model string
	sub   model.SubLayer
}

// microCells lists the rows of Figs. 13a and 15: every sub-layer of the
// microstudy models, only the first one in quick mode.
func (c Config) microCells() []microCell {
	var cells []microCell
	for _, cfg := range c.microModels() {
		subs := model.SubLayers(cfg)
		if c.Quick {
			subs = subs[:1]
		}
		for _, sub := range subs {
			cells = append(cells, microCell{model: cfg.Name, sub: sub})
		}
	}
	return cells
}

// variant is one labeled strategy of a sweep.
type variant struct {
	name string
	spec strategy.Spec
}

// caisVsNoCoord is the column pair of Figs. 13a and 14: CAIS beside its
// uncoordinated variant.
func caisVsNoCoord() []variant {
	return []variant{{"CAIS", strategy.CAIS()}, {"no-coord", strategy.CAISNoCoord()}}
}

// Render formats the Fig. 13(a) table.
func (r *Fig13aResult) Render() string {
	t := metrics.NewTable("Fig. 13a: minimal required merge-table size per port (unlimited-table high-water mark)",
		"Model", "Sub-layer", "CAIS (KB)", "w/o coord (KB)")
	for _, row := range r.Rows {
		t.Addf(row.Model, row.SubLayer, row.CoordKB, row.UncoordKB)
	}
	t.AddRow("", "", fmt.Sprintf("avg reduction: %.0f%%", r.ReductionPct), "")
	return t.String()
}

// Fig13bRow is one coordination-ablation step.
type Fig13bRow struct {
	Step    string
	SkewUS  float64 // average per-address arrival spread (waiting time)
	Elapsed sim.Time
}

// Fig13bResult is the coordination ablation.
type Fig13bResult struct{ Rows []Fig13bRow }

// Fig13b reproduces Fig. 13(b): the average waiting time (delay between
// the earliest and latest requests targeting the same address) as the
// coordination mechanisms are enabled one by one. The paper reduces
// ~35 us to <3 us.
func Fig13b(c Config) (*Fig13bResult, error) {
	steps := []variant{
		{"no coordination", strategy.CAISNoCoord()},
		{"+ pre-launch sync", withCoord(strategy.CAISNoCoord(), kernel.Coordination{PreLaunch: true})},
		{"+ pre-access sync", withCoord(strategy.CAISNoCoord(), kernel.Coordination{PreLaunch: true, PreAccess: true})},
		{"+ request throttling", strategy.CAIS()},
	}
	sub := model.SubLayers(c.primaryModel())[1] // the paper's L2
	hw := c.microHW()
	hw.MergeTableBytes = -1 // unlimited, so no eviction splits a session's arrivals
	rows, err := mapPoints(c, len(steps), func(i int) (Fig13bRow, error) {
		st := steps[i]
		res, err := c.runSubLayer("fig13b/"+st.name, hw, st.spec, sub, strategy.Options{})
		if err != nil {
			return Fig13bRow{}, err
		}
		return Fig13bRow{
			Step: st.name, SkewUS: res.Stats.AvgSkew().Microseconds(), Elapsed: res.Elapsed,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig13bResult{Rows: rows}, nil
}

// withCoord is an intermediate Fig. 13b step: s under coord.
func withCoord(s strategy.Spec, coord kernel.Coordination) strategy.Spec {
	s.Name = "CAIS-ablation"
	s.Coord = coord
	return s
}

// Render formats the Fig. 13(b) table.
func (r *Fig13bResult) Render() string {
	t := metrics.NewTable("Fig. 13b: TB-coordination ablation (average waiting time, LLaMA-7B L2)",
		"Configuration", "avg wait (us)", "elapsed")
	for _, row := range r.Rows {
		t.Addf(row.Step, row.SkewUS, row.Elapsed)
	}
	return t.String()
}

// Fig14Row is one merge-table-size point.
type Fig14Row struct {
	TableKB int
	// Performance normalized to CAIS at the largest table.
	CAIS    float64
	Uncoord float64
}

// Fig14Result is the table-size sensitivity study.
type Fig14Result struct{ Rows []Fig14Row }

// Fig14 reproduces Fig. 14: performance sensitivity to the merge-table
// size for LLaMA-7B. Coordinated CAIS stays near its peak with small
// tables; the uncoordinated variant degrades as the table shrinks.
func Fig14(c Config) (*Fig14Result, error) {
	// Sizes start at the simulation's request granularity (entries are
	// request-sized here; the paper's 5 KB point assumes 128 B entries).
	sizes := []int{10, 20, 40, 80, 160, 320}
	if c.Quick {
		sizes = []int{40, 80, 320}
	}
	sub := model.SubLayers(c.primaryModel())[1]
	elapsed, err := grid(c, sizes, caisVsNoCoord(), func(kb int, v variant) (sim.Time, error) {
		hw := c.microHW()
		hw.MergeTableBytes = int64(kb) << 10
		res, err := c.runSubLayer(fmt.Sprintf("fig14/%dKB/%s", kb, v.name), hw, v.spec, sub, strategy.Options{})
		return res.Elapsed, err
	})
	if err != nil {
		return nil, err
	}
	ref := elapsed[len(sizes)-1][0]
	out := &Fig14Result{}
	for i, kb := range sizes {
		out.Rows = append(out.Rows, Fig14Row{
			TableKB: kb,
			CAIS:    float64(ref) / float64(elapsed[i][0]),
			Uncoord: float64(ref) / float64(elapsed[i][1]),
		})
	}
	return out, nil
}

// Render formats the Fig. 14 table.
func (r *Fig14Result) Render() string {
	t := metrics.NewTable("Fig. 14: performance vs merge-table size (normalized, LLaMA-7B L2)",
		"Table (KB)", "CAIS", "w/o coordination")
	for _, row := range r.Rows {
		t.Addf(row.TableKB, row.CAIS, row.Uncoord)
	}
	return t.String()
}

// Fig15Row is one sub-layer's average bandwidth utilization per config.
type Fig15Row struct {
	Model    string
	SubLayer string
	BasePct  float64
	PartPct  float64
	CAISPct  float64
}

// Fig15Result is the bandwidth-utilization study.
type Fig15Result struct {
	Rows []Fig15Row
	// Averages across rows (the paper reports 62.4 / 84.7 / 90.2).
	AvgBase, AvgPartial, AvgCAIS float64
}

// Fig15 reproduces Fig. 15: average bandwidth utilization (across all
// links and both directions, over the communication-active window) for
// CAIS-Base, CAIS-Partial (no traffic control) and full CAIS.
func Fig15(c Config) (*Fig15Result, error) {
	hw := c.microHW()
	cells := c.microCells()
	utils, err := grid(c, cells, utilizationLadder(), func(cl microCell, spec strategy.Spec) (float64, error) {
		res, err := c.runSubLayer("fig15/"+cl.model+"/"+cl.sub.ID+"/"+spec.Name, hw, spec, cl.sub, strategy.Options{})
		return res.AvgUtil * 100, err
	})
	if err != nil {
		return nil, err
	}
	out := &Fig15Result{}
	for i, cl := range cells {
		u := utils[i]
		row := Fig15Row{Model: cl.model, SubLayer: cl.sub.ID, BasePct: u[0], PartPct: u[1], CAISPct: u[2]}
		out.Rows = append(out.Rows, row)
		out.AvgBase += row.BasePct
		out.AvgPartial += row.PartPct
		out.AvgCAIS += row.CAISPct
	}
	if n := float64(len(cells)); n > 0 {
		out.AvgBase /= n
		out.AvgPartial /= n
		out.AvgCAIS /= n
	}
	return out, nil
}

// utilizationLadder is the strategies of Figs. 15 and 16: CAIS-Base,
// CAIS-Partial (no traffic control) and full CAIS.
func utilizationLadder() []strategy.Spec {
	return []strategy.Spec{strategy.CAISBase(), strategy.CAISPartial(), strategy.CAIS()}
}

// Render formats the Fig. 15 table.
func (r *Fig15Result) Render() string {
	t := metrics.NewTable("Fig. 15: average bandwidth utilization per sub-layer (%)",
		"Model", "Sub-layer", "CAIS-Base", "CAIS-Partial", "CAIS")
	for _, row := range r.Rows {
		t.Addf(row.Model, row.SubLayer, row.BasePct, row.PartPct, row.CAISPct)
	}
	t.Addf("average", "", r.AvgBase, r.AvgPartial, r.AvgCAIS)
	return t.String()
}

// Fig16Series is one configuration's utilization-over-time series.
type Fig16Series struct {
	Name string
	Bin  sim.Time
	Util []float64
}

// Fig16Result is the utilization-over-time study.
type Fig16Result struct{ Series []Fig16Series }

// Fig16 reproduces Fig. 16: link bandwidth utilization over time for the
// L2 sub-layer of LLaMA-7B under CAIS-Base, CAIS-Partial and CAIS. The
// paper shows CAIS sustaining near-peak utilization while Partial dips
// from contention and Base fluctuates lowest.
func Fig16(c Config) (*Fig16Result, error) {
	sub := model.SubLayers(c.primaryModel())[1]
	hw := c.microHW()
	bin := 20 * sim.Microsecond
	if c.Quick {
		bin = 50 * sim.Microsecond
	}
	specs := utilizationLadder()
	series, err := mapPoints(c, len(specs), func(i int) (Fig16Series, error) {
		spec := specs[i]
		// UtilBin is declarative and hashed into the memo key, so the
		// timeline records into the cache entry on the first run and
		// replays byte-identically on hits.
		ent, err := c.runSubLayer("fig16/"+spec.Name, hw, spec, sub, strategy.Options{UtilBin: bin})
		if err != nil {
			return Fig16Series{}, err
		}
		return Fig16Series{Name: spec.Name, Bin: bin, Util: ent.Timeline.Utilization()}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig16Result{Series: series}, nil
}

// Render formats the Fig. 16 series as a sparkline-style table.
func (r *Fig16Result) Render() string {
	t := metrics.NewTable("Fig. 16: bandwidth utilization over time (LLaMA-7B L2)",
		"t", "CAIS-Base", "CAIS-Partial", "CAIS")
	maxLen := 0
	for _, s := range r.Series {
		if len(s.Util) > maxLen {
			maxLen = len(s.Util)
		}
	}
	bin := sim.Time(0)
	if len(r.Series) > 0 {
		bin = r.Series[0].Bin
	}
	at := func(s Fig16Series, i int) string {
		if i >= len(s.Util) {
			return "-"
		}
		return fmt.Sprintf("%.0f%%", s.Util[i]*100)
	}
	for i := 0; i < maxLen; i++ {
		t.AddRow((sim.Time(i) * bin).String(), at(r.Series[0], i), at(r.Series[1], i), at(r.Series[2], i))
	}
	return t.String()
}
