package compiler

import (
	"strings"
	"testing"

	"cais/internal/kernel"
	"cais/internal/noc"
)

func invariantRead() kernel.Pattern {
	// The AG-GEMM input load of Fig. 8a: addr = blockIdx*tile (no gpuID).
	return kernel.Pattern{
		Name: "ld.X", Sem: kernel.SemRead,
		Addr: kernel.Mul(kernel.ParamBlock, kernel.Const(128)),
		Home: kernel.Mod(kernel.ParamBlock, kernel.Const(8)),
	}
}

func TestAnalyzeRewritesGPUInvariantLoad(t *testing.T) {
	v := Analyze(invariantRead())
	if !v.Mergeable {
		t.Fatalf("GPU-invariant load not mergeable: %s", v.Reason)
	}
	if v.Mode != noc.OpLdCAIS {
		t.Fatalf("mode = %v, want ld.cais", v.Mode)
	}
	if !strings.Contains(v.Reason, "ld.cais") {
		t.Fatalf("reason lacks rewrite detail: %s", v.Reason)
	}
}

func TestAnalyzeRewritesGPUInvariantReduction(t *testing.T) {
	p := invariantRead()
	p.Sem = kernel.SemReduce
	v := Analyze(p)
	if !v.Mergeable || v.Mode != noc.OpRedCAIS {
		t.Fatalf("reduction verdict = %+v", v)
	}
}

func TestAnalyzeRejectsGPUVariantAccess(t *testing.T) {
	p := kernel.Pattern{
		Name: "ld.local", Sem: kernel.SemRead,
		// addr = gpuID*shard + blockIdx*tile: each GPU touches its own
		// shard, so merging would be incorrect.
		Addr: kernel.Add(
			kernel.Mul(kernel.ParamGPU, kernel.Const(1<<20)),
			kernel.Mul(kernel.ParamBlock, kernel.Const(128))),
		Home: kernel.ParamGPU,
	}
	v := Analyze(p)
	if v.Mergeable {
		t.Fatal("GPU-variant access marked mergeable")
	}
	if v.Mode != noc.OpLoad {
		t.Fatalf("mode = %v, want plain ld", v.Mode)
	}
	if !strings.Contains(v.Reason, "gpuID") {
		t.Fatalf("reason should cite gpuID: %s", v.Reason)
	}
}

func TestAnalyzePlainWriteNeverRewritten(t *testing.T) {
	p := invariantRead()
	p.Sem = kernel.SemWrite
	v := Analyze(p)
	if v.Mergeable {
		t.Fatal("plain write marked mergeable: CAIS only extends ld/red")
	}
	if v.Mode != noc.OpStore {
		t.Fatalf("mode = %v, want st", v.Mode)
	}
}
