package strategy

import (
	"fmt"
	"strings"
	"testing"

	"cais/internal/core"
	"cais/internal/model"
)

// Lowering-state guards: a miswired op sequence must fail loudly, not
// silently produce a wrong pipeline.

func tinySession(t *testing.T) *core.Session {
	t.Helper()
	s, err := core.NewSession(tinyHW(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func expectPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	fn()
}

func TestLoweringGuards(t *testing.T) {
	s := tinySession(t)
	b := s.Builder()
	tokens := tinyModel().Tokens()

	expectPanic(t, "attention without a local QKV grid", func() {
		st := actState{kind: stateSharded, t: b.NewSharded(tokens)}
		lower(s, CAIS(), model.OpSpec{Name: "attn", Kind: model.OpAttention,
			Batch: 1, Heads: 4, Seq: 256, HeadDim: 128}, &st)
	})
	expectPanic(t, "row GEMM without a local input grid", func() {
		st := actState{kind: stateGathered, t: b.NewGathered(tokens)}
		lower(s, CAIS(), model.OpSpec{Name: "rg", Kind: model.OpRowGEMM,
			M: tokens, N: 512, K: 512}, &st)
	})
	expectPanic(t, "Basic-TP col GEMM without replicated input", func() {
		st := actState{kind: stateSharded, t: b.NewSharded(tokens)}
		lower(s, TPNVLS(), model.OpSpec{Name: "cg", Kind: model.OpColGEMM,
			M: tokens, N: 512, K: 512}, &st)
	})
	expectPanic(t, "SP gather from a non-sharded state", func() {
		st := actState{kind: stateLocal, t: b.NewLocalGrid(tokens, 512)}
		lower(s, CAIS(), model.OpSpec{Name: "cg", Kind: model.OpColGEMM,
			M: tokens, N: 512, K: 512}, &st)
	})
	expectPanic(t, "row op with no activation state", func() {
		st := actState{}
		lower(s, CAIS(), model.OpSpec{Name: "ln", Kind: model.OpLN,
			Rows: tokens, Cols: 512}, &st)
	})
}

func TestRunLayersRejectsInvalidModel(t *testing.T) {
	bad := tinyModel()
	bad.Layers = 0
	if _, err := RunLayersOpts(tinyHW(), CAIS(), bad, false, 1, Options{}); err == nil {
		t.Fatal("invalid model accepted")
	}
	for _, layers := range []int{0, -1} {
		_, err := RunLayersOpts(tinyHW(), CAIS(), tinyModel(), false, layers, Options{})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%d layers", layers)) {
			t.Errorf("%d layers: error %v, want one naming the layer count", layers, err)
		}
	}
}

func TestDirectionTrafficAsymmetry(t *testing.T) {
	// A pure GEMM-RS run is GPU-to-switch heavy (Fig. 10a): contributions
	// go up, only merged results come down.
	hw := tinyHW()
	res, err := RunSubLayer(hw, CAISNoCoord(), model.SubLayers(tinyModel())[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	up, down := res.Machine.DirectionTraffic()
	if up <= 0 || down <= 0 {
		t.Fatal("no directional traffic")
	}
	busyUp, busyDown := res.Machine.DirectionBusy()
	if busyUp <= 0 || busyDown <= 0 {
		t.Fatal("no directional busy time")
	}
}
