package experiments

import (
	"math"

	"cais/internal/metrics"
	"cais/internal/model"
	"cais/internal/strategy"
)

// Fig10Row is one strategy's directional traffic decomposition.
type Fig10Row struct {
	Strategy string
	UpGB     float64 // GPU->switch wire traffic
	DownGB   float64 // switch->GPU wire traffic
	// Imbalance is |up-down| / (up+down): 0 = perfectly balanced links.
	Imbalance float64
	Elapsed   string
}

// Fig10Result is the asymmetric-traffic study.
type Fig10Result struct{ Rows []Fig10Row }

// Fig10 quantifies the paper's Fig. 10 observation on real workloads:
// in-switch reduction (GEMM-RS) is GPU-to-switch heavy while in-switch
// gathering (AG-GEMM) is switch-to-GPU heavy, so a strategy that
// serializes them leaves each direction idle half the time. Running the
// L2 sub-layer (which contains one of each) shows the per-direction
// volumes and how CAIS's asymmetric kernel overlapping balances them in
// time rather than in volume.
func Fig10(c Config) (*Fig10Result, error) {
	sub := model.SubLayers(c.primaryModel())[1]
	hw := c.microHW()
	specs := []strategy.Spec{strategy.SPNVLS(), strategy.T3NVLS(), strategy.CAISBase(), strategy.CAIS()}
	rows, err := mapPoints(c, len(specs), func(i int) (Fig10Row, error) {
		spec := specs[i]
		res, err := c.runSubLayer("fig10/"+spec.Name, hw, spec, sub, strategy.Options{})
		if err != nil {
			return Fig10Row{}, err
		}
		up, down := res.UpBytes, res.DownBytes
		total := float64(up + down)
		imb := 0.0
		if total > 0 {
			imb = math.Abs(float64(up)-float64(down)) / total
		}
		return Fig10Row{
			Strategy:  spec.Name,
			UpGB:      float64(up) / 1e9,
			DownGB:    float64(down) / 1e9,
			Imbalance: imb,
			Elapsed:   res.Elapsed.String(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Rows: rows}, nil
}

// Render formats the Fig. 10 table.
func (r *Fig10Result) Render() string {
	t := metrics.NewTable("Fig. 10: asymmetric traffic per direction (LLaMA-7B L2: GEMM-RS + LN + AG-GEMM)",
		"Strategy", "G2S (GB)", "S2G (GB)", "volume imbalance", "elapsed")
	for _, row := range r.Rows {
		t.Addf(row.Strategy, row.UpGB, row.DownGB, row.Imbalance, row.Elapsed)
	}
	return t.String()
}
