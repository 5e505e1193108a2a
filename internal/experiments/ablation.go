package experiments

import (
	"fmt"

	"cais/internal/memo"
	"cais/internal/metrics"
	"cais/internal/model"
	"cais/internal/nvswitch"
	"cais/internal/sim"
	"cais/internal/strategy"
)

// Ablation benches for the design choices DESIGN.md calls out. These go
// beyond the paper's figures: they quantify the two mechanisms the
// reproduction's merge unit depends on (the victim-selection policy and
// the dedicated control/request channel).

// AblationRow is one design-variant measurement.
type AblationRow struct {
	Variant string
	Elapsed sim.Time
	// SlowdownPct relative to the first (reference) variant.
	SlowdownPct float64
	// Flushes counts partial reduction flushes (merge-quality proxy).
	Flushes int64
	SkewUS  float64
}

// AblationResult is one design-choice sweep.
type AblationResult struct {
	Title string
	Rows  []AblationRow
}

// AblationEviction compares the merge unit's victim policies (the paper
// fixes LRU, Sec. III-A-4). Measured on the uncoordinated variant, where
// staggered arrivals keep many sessions live and the victim choice
// actually matters; under full coordination sessions are so short-lived
// that the policies coincide.
func AblationEviction(c Config) (*AblationResult, error) {
	var variants []ablationVariant
	for _, pol := range []nvswitch.EvictionPolicy{nvswitch.EvictLRU, nvswitch.EvictFIFO, nvswitch.EvictMRU} {
		variants = append(variants, ablationVariant{pol.String(), strategy.Options{Eviction: pol}})
	}
	return ablation(c, "ablation-eviction", "merge-unit eviction policy (CAIS-w/o-Coord, LLaMA-7B L2, 40 KB/port)",
		strategy.CAISNoCoord(), variants)
}

// AblationSideband compares the dedicated control/request channel against
// control packets sharing the data queues — the head-of-line-blocking
// failure mode that breaks synchronization alignment.
func AblationSideband(c Config) (*AblationResult, error) {
	return ablation(c, "ablation-sideband", "control/request sideband (CAIS, LLaMA-7B L2)", strategy.CAIS(), []ablationVariant{
		{"sideband on (default)", strategy.Options{}},
		{"sideband off", strategy.Options{NoControlSideband: true}},
	})
}

// ablationVariant is one design variant: the run options that select it.
type ablationVariant struct {
	name string
	opts strategy.Options
}

// ablation runs spec on the L2 sub-layer once per variant and folds the
// rows in variant order, the first being the reference of the others.
func ablation(c Config, id, title string, spec strategy.Spec, variants []ablationVariant) (*AblationResult, error) {
	sub := model.SubLayers(c.primaryModel())[1]
	hw := c.microHW()
	results, err := mapPoints(c, len(variants), func(i int) (memo.Entry, error) {
		return c.runSubLayer(id+"/"+variants[i].name, hw, spec, sub, variants[i].opts)
	})
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Title: title}
	for i, res := range results {
		out.add(variants[i].name, res)
	}
	return out, nil
}

// AblationGranularity sweeps the simulation's request granularity to show
// the reported shapes are not an artifact of one chunk size.
func AblationGranularity(c Config) (*AblationResult, error) {
	sub := model.SubLayers(c.primaryModel())[1]
	sizes := []int64{8 << 10, 16 << 10, 32 << 10}
	if c.Quick {
		sizes = sizes[1:]
	}
	runs, err := grid(c, sizes, caisVsTPNVLS(), func(rb int64, spec strategy.Spec) (memo.Entry, error) {
		hw := c.HW
		hw.RequestBytes = rb
		return c.runSubLayer(fmt.Sprintf("ablation-granularity/%dKB/%s", rb>>10, spec.Name), hw, spec, sub, strategy.Options{})
	})
	if err != nil {
		return nil, err
	}
	out := &AblationResult{Title: "request granularity sensitivity (CAIS speedup over TP-NVLS, LLaMA-7B L2)"}
	for i, rb := range sizes {
		cais := runs[i][0]
		out.Rows = append(out.Rows, AblationRow{
			Variant:     fmt.Sprintf("%d KB requests", rb>>10),
			Elapsed:     cais.Elapsed,
			SlowdownPct: (cais.Speedup(runs[i][1]) - 1) * 100, // speedup margin, in %
			Flushes:     cais.Stats.PartialFlushes,
			SkewUS:      cais.Stats.AvgSkew().Microseconds(),
		})
	}
	return out, nil
}

func (r *AblationResult) add(name string, res memo.Entry) {
	row := AblationRow{
		Variant: name, Elapsed: res.Elapsed,
		Flushes: res.Stats.PartialFlushes,
		SkewUS:  res.Stats.AvgSkew().Microseconds(),
	}
	if len(r.Rows) > 0 {
		ref := r.Rows[0].Elapsed
		row.SlowdownPct = (float64(res.Elapsed)/float64(ref) - 1) * 100
	}
	r.Rows = append(r.Rows, row)
}

// Render formats an ablation table.
func (r *AblationResult) Render() string {
	t := metrics.NewTable("Ablation: "+r.Title,
		"Variant", "elapsed", "delta %", "partial flushes", "skew (us)")
	for _, row := range r.Rows {
		t.Addf(row.Variant, row.Elapsed, row.SlowdownPct, row.Flushes, row.SkewUS)
	}
	return t.String()
}
