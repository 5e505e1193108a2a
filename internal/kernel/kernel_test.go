package kernel

import (
	"testing"
	"testing/quick"

	"cais/internal/noc"
)

func TestExprEval(t *testing.T) {
	env := Env{GPU: 3, BlockIdx: 17}
	cases := []struct {
		e    Expr
		want int64
	}{
		{Const(5), 5},
		{ParamGPU, 3},
		{ParamBlock, 17},
		{Add(ParamBlock, Const(1)), 18},
		{Mul(ParamBlock, Const(128)), 17 * 128},
		{Div(ParamBlock, Const(4)), 4},
		{Mod(ParamBlock, Const(4)), 1},
		{Add(Mul(ParamGPU, Const(100)), ParamBlock), 317},
	}
	for _, c := range cases {
		if got := c.e.Eval(env); got != c.want {
			t.Errorf("%s = %d, want %d", c.e, got, c.want)
		}
	}
}

func TestExprDivModByZeroPanics(t *testing.T) {
	for _, e := range []Expr{Div(ParamBlock, Const(0)), Mod(ParamBlock, Const(0))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", e)
				}
			}()
			e.Eval(Env{})
		}()
	}
}

func TestUsesParam(t *testing.T) {
	gpuVariant := Add(Mul(ParamGPU, Const(4096)), ParamBlock)
	gpuInvariant := Add(Mul(ParamBlock, Const(128)), Const(7))
	if !UsesParam(gpuVariant, ParamGPU) {
		t.Error("gpuID not detected in variant expression")
	}
	if UsesParam(gpuInvariant, ParamGPU) {
		t.Error("false gpuID detection in invariant expression")
	}
	if !UsesParam(gpuInvariant, ParamBlock) {
		t.Error("blockIdx not detected")
	}
}

func TestExprGPUInvarianceProperty(t *testing.T) {
	// Property: an expression not using gpuID evaluates identically on
	// all GPUs for the same blockIdx (the exact property the compiler's
	// index analysis relies on).
	f := func(scale uint8, off uint16, block uint8) bool {
		e := Add(Mul(ParamBlock, Const(int64(scale)+1)), Const(int64(off)))
		var first int64
		for g := 0; g < 8; g++ {
			v := e.Eval(Env{GPU: int64(g), BlockIdx: int64(block)})
			if g == 0 {
				first = v
			} else if v != first {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPatternEvaluators(t *testing.T) {
	p := Pattern{Sem: SemRead, Addr: Mul(ParamBlock, Const(1024))}
	if got := p.AddrAt(5, 3); got != 3072 {
		t.Fatalf("AddrAt = %d, want 3072", got)
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
