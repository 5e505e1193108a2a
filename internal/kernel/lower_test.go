package kernel

import (
	"testing"

	"cais/internal/noc"
)

// The CAIS compiler support (Sec. III-B, Fig. 8a) as the paper states it:
// a load or reduction whose address does not depend on the GPU ID is
// rewritten to ld.cais or red.cais, a GPU-dependent access keeps its plain
// operation, and plain writes are never rewritten. The pass itself is
// Pattern.Lower.

func invariantRead() Pattern {
	// The AG-GEMM input load of Fig. 8a: addr = blockIdx*tile (no gpuID).
	return Pattern{Sem: SemRead, Stride: 128}
}

func TestAnalyzeRewritesGPUInvariantLoad(t *testing.T) {
	op, merged := invariantRead().Lower()
	if !merged {
		t.Fatal("GPU-invariant load not merged")
	}
	if op != noc.OpLdCAIS || op.String() != "ld.cais" {
		t.Fatalf("op = %v, want ld.cais", op)
	}
}

func TestAnalyzeRewritesGPUInvariantReduction(t *testing.T) {
	p := invariantRead()
	p.Sem = SemReduce
	if op, merged := p.Lower(); !merged || op != noc.OpRedCAIS {
		t.Fatalf("reduction lowers to (%v, %v), want (red.cais, true)", op, merged)
	}
}

func TestAnalyzeRejectsGPUVariantAccess(t *testing.T) {
	// addr = gpuID*shard + blockIdx*tile: each GPU touches its own shard,
	// so merging would be incorrect.
	p := invariantRead()
	p.PerGPU = 1 << 20
	if p.AddrAt(0, 3) == p.AddrAt(1, 3) {
		t.Fatal("gpuID term leaves GPUs 0 and 1 on one address")
	}
	op, merged := p.Lower()
	if merged {
		t.Fatal("GPU-variant access merged")
	}
	if op != noc.OpLoad {
		t.Fatalf("op = %v, want plain ld", op)
	}
}

func TestAnalyzePlainWriteNeverRewritten(t *testing.T) {
	p := invariantRead()
	p.Sem = SemWrite
	op, merged := p.Lower()
	if merged {
		t.Fatal("plain write merged: CAIS only extends ld/red")
	}
	if op != noc.OpStore {
		t.Fatalf("op = %v, want st", op)
	}
}
