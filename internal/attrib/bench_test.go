package attrib_test

import (
	"testing"

	"cais/internal/attrib"
	"cais/internal/config"
	"cais/internal/strategy"
	"cais/internal/trace"
)

// BenchmarkAttribBuild times the attribution sweep alone: one LLaMA-7B
// CAIS prefill layer at the quick sweep's 32 KB requests is recorded once,
// outside the timer, and every iteration builds its report from the same
// trace (run with -benchmem).
func BenchmarkAttribBuild(b *testing.B) {
	hw := config.DGXH100()
	hw.RequestBytes = 32 << 10
	tr := trace.New()
	res, err := strategy.RunLayersOpts(hw, strategy.CAIS(), config.LLaMA7B(), false, 1, strategy.Options{Tracer: tr})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var rep *attrib.Report
	for i := 0; i < b.N; i++ {
		rep = attrib.Build(res.Machine, tr, res.Elapsed)
	}
	if rep.Elapsed != res.Elapsed {
		b.Fatalf("report elapsed %v, run elapsed %v", rep.Elapsed, res.Elapsed)
	}
	b.ReportMetric(float64(tr.Len()), "events")
}
