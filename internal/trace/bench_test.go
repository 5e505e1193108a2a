package trace

import (
	"testing"

	"cais/internal/sim"
)

// BenchmarkDisabledHotPath measures the instrumentation cost with tracing
// disabled (nil tracer): the opt-in guarantee requires 0 allocs/op so the
// bit-reproducible engine pays nothing when no tracer is attached. CI
// asserts the allocation bound via TestDisabledInstrumentationAllocatesNothing;
// this benchmark reports it (run with -benchmem).
func BenchmarkDisabledHotPath(b *testing.B) {
	var tr *Tracer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span(1, 2, "gpu.tb", "gemm", sim.Time(i), sim.Time(i+10))
		tr.Instant(1, 2, "gpu.sync", "wait", sim.Time(i))
		tr.BeginAsync(3, "kernel", "k", uint64(i), sim.Time(i))
		tr.EndAsync(3, "kernel", "k", uint64(i), sim.Time(i+10))
	}
}

// BenchmarkEnabledSpan is the reference point: the cost of one recorded
// span with tracing on (amortized slice append).
func BenchmarkEnabledSpan(b *testing.B) {
	tr := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Span(1, 2, "gpu.tb", "gemm", sim.Time(i), sim.Time(i+10))
	}
}
