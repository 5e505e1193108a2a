package kernel

import (
	"testing"
	"testing/quick"

	"cais/internal/noc"
)

func TestExprEval(t *testing.T) {
	// The address Base + ⌊blockIdx/Div⌋·Stride + gpuID·PerGPU, term by term.
	cases := []struct {
		name       string
		p          Pattern
		gpu, block int
		want       uint64
	}{
		{"base only", Pattern{Base: 7}, 3, 17, 7},
		{"stride per block", Pattern{Stride: 128}, 3, 17, 17 * 128},
		{"div floors", Pattern{Base: 100, Div: 4, Stride: 8}, 0, 17, 100 + 4*8},
		{"per gpu", Pattern{PerGPU: 100, Stride: 1}, 3, 17, 317},
		{"all terms", Pattern{Base: 1 << 20, Div: 2, Stride: 3, PerGPU: 1000}, 2, 9, 1<<20 + 4*3 + 2000},
	}
	for _, c := range cases {
		if got := c.p.AddrAt(c.gpu, c.block); got != c.want {
			t.Errorf("%s: %+v.AddrAt(%d, %d) = %d, want %d", c.name, c.p, c.gpu, c.block, got, c.want)
		}
	}
}

func TestPatternEvaluators(t *testing.T) {
	// Div 0 and Div 1 both step the address once per blockIdx.
	for _, div := range []int{0, 1} {
		p := Pattern{Sem: SemRead, Div: div, Stride: 1024}
		if got := p.AddrAt(5, 3); got != 3072 {
			t.Errorf("Div %d: AddrAt = %d, want 3072", div, got)
		}
	}
}

func TestPatternGPUInvarianceProperty(t *testing.T) {
	// Property: a pattern without a gpuID term addresses the same location
	// on every GPU for the same blockIdx (what makes merging correct), and
	// Lower merges exactly those loads and reductions; a gpuID term gives
	// every GPU its own location, and Lower keeps the plain operation.
	f := func(base uint32, div, stride uint8, perGPU uint16, block uint8, sem uint8) bool {
		p := Pattern{Sem: Semantic(sem % 3), Base: uint64(base), Div: int(div), Stride: uint64(stride)}
		_, merged := p.Lower()
		if merged != (p.Sem != SemWrite) {
			return false
		}
		for g := 1; g < 8; g++ {
			if p.AddrAt(g, int(block)) != p.AddrAt(0, int(block)) {
				return false
			}
		}
		p.PerGPU = uint64(perGPU) + 1
		if _, merged := p.Lower(); merged {
			return false
		}
		seen := map[uint64]bool{}
		for g := 0; g < 8; g++ {
			seen[p.AddrAt(g, int(block))] = true
		}
		return len(seen) == 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUsesParam(t *testing.T) {
	// A gpuID term (PerGPU != 0) gives every GPU its own address, and
	// Lower keeps such an access plain whatever its semantic. A blockIdx
	// term alone is not a gpuID use.
	gpuVariant := Pattern{Stride: 1, PerGPU: 4096}
	gpuInvariant := Pattern{Sem: SemRead, Base: 7, Stride: 128}
	for _, c := range []struct {
		sem Semantic
		op  noc.Op
	}{{SemRead, noc.OpLoad}, {SemReduce, noc.OpStore}, {SemWrite, noc.OpStore}} {
		gpuVariant.Sem = c.sem
		if op, merged := gpuVariant.Lower(); op != c.op || merged {
			t.Errorf("gpuID not detected: %v lowers to (%v, %v), want (%v, false)", c.sem, op, merged, c.op)
		}
	}
	if gpuVariant.AddrAt(0, 5) == gpuVariant.AddrAt(1, 5) {
		t.Error("gpuID term not evaluated")
	}
	if _, merged := gpuInvariant.Lower(); !merged {
		t.Error("false gpuID detection in invariant pattern")
	}
	if gpuInvariant.AddrAt(0, 5) == gpuInvariant.AddrAt(0, 6) {
		t.Error("blockIdx term not evaluated")
	}
}

func TestKernelValidate(t *testing.T) {
	ok := &Kernel{Name: "k", Grid: 4, Work: func(g, tb int) TBDesc { return TBDesc{} }}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid kernel rejected: %v", err)
	}
	bad := []*Kernel{
		{Grid: 4, Work: ok.Work},
		{Name: "k", Grid: 0, Work: ok.Work},
		{Name: "k", Grid: 4},
	}
	for i, k := range bad {
		if err := k.Validate(); err == nil {
			t.Errorf("bad kernel %d accepted", i)
		}
	}
}

func TestKernelAggregates(t *testing.T) {
	k := &Kernel{
		Name: "g", Grid: 3,
		Work: func(gpu, tb int) TBDesc {
			return TBDesc{
				Flops: 100,
				Pre:   []Access{{Mode: noc.OpLdCAIS, Bytes: 10}},
				Post:  []Access{{Mode: noc.OpStore, Bytes: 5, Local: true}},
			}
		},
	}
	if got := k.TotalFlops(0); got != 300 {
		t.Fatalf("TotalFlops = %v, want 300", got)
	}
}

func TestKindAndSemanticStrings(t *testing.T) {
	if KindGEMM.String() != "gemm" || KindComm.String() != "comm" {
		t.Fatal("kind names wrong")
	}
	if SemRead.String() != "read" || SemReduce.String() != "reduce" || SemWrite.String() != "write" {
		t.Fatal("semantic names wrong")
	}
}
