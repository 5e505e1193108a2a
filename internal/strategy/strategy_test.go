package strategy

import (
	"strings"
	"testing"

	"cais/internal/config"
	"cais/internal/model"
	"cais/internal/sim"
)

// tinyHW is a scaled-down system that keeps tests fast while preserving
// every mechanism (4 GPUs, 2 planes, small SM count).
func tinyHW() config.Hardware {
	hw := config.DGXH100()
	hw.NumGPUs = 4
	hw.NumSwitchPlanes = 2
	hw.SMsPerGPU = 16
	hw.RequestBytes = 16 << 10
	return hw
}

// tinyModel is a miniature transformer that still produces multi-tile
// grids in every dimension.
func tinyModel() config.Model {
	return config.Model{Name: "tiny", Hidden: 512, FFNHidden: 1024, Heads: 4, SeqLen: 256, Batch: 2, Layers: 2}
}

func TestSpecCatalog(t *testing.T) {
	if len(Baselines()) != 9 {
		t.Fatalf("baselines = %d, want 9 (paper Sec. IV-C)", len(Baselines()))
	}
	all := All()
	if len(all) != 11 {
		t.Fatalf("All() = %d, want 11 (9 baselines + CAIS-Base + CAIS)", len(all))
	}
	names := map[string]bool{}
	for _, s := range all {
		if names[s.Name] {
			t.Fatalf("duplicate strategy name %q", s.Name)
		}
		names[s.Name] = true
	}
	for _, want := range []string{"TP-NVLS", "SP-NVLS", "CoCoNet", "FuseLib", "T3",
		"CoCoNet-NVLS", "FuseLib-NVLS", "T3-NVLS", "LADM", "CAIS-Base", "CAIS"} {
		if !names[want] {
			t.Errorf("missing strategy %q", want)
		}
	}
}

func TestCAISTPExtension(t *testing.T) {
	hw := tinyHW()
	sub := model.SubLayers(tinyModel())[0]
	tp, err := RunSubLayer(hw, TPNVLS(), sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ext, err := RunSubLayer(hw, CAISTP(), sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ext.Elapsed >= tp.Elapsed {
		t.Fatalf("CAIS-TP (%v) not faster than TP-NVLS (%v)", ext.Elapsed, tp.Elapsed)
	}
	// Broadcast sessions complete in place: every reduction merges and no
	// partial is stranded at a home replica.
	if ext.Stats.CompletedReds == 0 {
		t.Fatal("CAIS-TP produced no completed broadcast merges")
	}
	if got, err := ByName("cais-tp"); err != nil || got.Name != "CAIS-TP" {
		t.Fatalf("extension not resolvable by name: %v %v", got, err)
	}
}

func TestMegatronRingReference(t *testing.T) {
	hw := tinyHW()
	sub := model.SubLayers(tinyModel())[0]
	ring, err := RunSubLayer(hw, MegatronRing(), sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	nvls, err := RunSubLayer(hw, SPNVLS(), sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cais, err := RunSubLayer(hw, CAIS(), sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// In-switch computing must beat the GPU-driven ring; CAIS beats both.
	if nvls.Elapsed >= ring.Elapsed {
		t.Errorf("SP-NVLS (%v) not faster than the ring baseline (%v)", nvls.Elapsed, ring.Elapsed)
	}
	if cais.Elapsed >= ring.Elapsed {
		t.Errorf("CAIS (%v) not faster than the ring baseline (%v)", cais.Elapsed, ring.Elapsed)
	}
	if ring.Stats.PullReduces != 0 || ring.Stats.MulticastStores != 0 || ring.Stats.MergedReds != 0 {
		t.Error("ring baseline must not touch NVLS or the merge unit")
	}
}

// TestByName: every name ByName accepts (All, the two ablations and the
// Extensions) resolves in any case, and an unknown name's error lists
// each of them.
func TestByName(t *testing.T) {
	_, err := ByName("nope")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	accepted := append(All(), CAISPartial(), CAISNoCoord())
	for _, s := range append(accepted, Extensions()...) {
		if got, err := ByName(strings.ToUpper(s.Name)); err != nil || got.Name != s.Name {
			t.Errorf("ByName(%q) = %q, %v", strings.ToUpper(s.Name), got.Name, err)
		}
		if !strings.Contains(err.Error(), s.Name) {
			t.Errorf("error %q does not list %q", err, s.Name)
		}
	}
}

func TestNVLSUsage(t *testing.T) {
	if !CAIS().UsesNVLS() || !TPNVLS().UsesNVLS() || !T3NVLS().UsesNVLS() {
		t.Fatal("NVLS strategies misclassified")
	}
	if CoCoNet().UsesNVLS() || T3().UsesNVLS() || LADM().UsesNVLS() {
		t.Fatal("non-NVLS strategies misclassified")
	}
}

func TestAllStrategiesCompleteSubLayer(t *testing.T) {
	hw := tinyHW()
	sub := model.SubLayers(tinyModel())[0]
	for _, spec := range append(All(), CAISPartial(), CAISNoCoord()) {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := RunSubLayer(hw, spec, sub, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 {
				t.Fatal("zero elapsed time")
			}
			if res.AvgUtil < 0 || res.AvgUtil > 1 {
				t.Fatalf("utilization %v out of range", res.AvgUtil)
			}
		})
	}
}

func TestAllStrategiesCompleteLayerChain(t *testing.T) {
	hw := tinyHW()
	cfg := tinyModel()
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := RunLayersOpts(hw, spec, cfg, false, 1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 {
				t.Fatal("zero elapsed time")
			}
		})
	}
}

func TestAllStrategiesCompleteTraining(t *testing.T) {
	// The mirrored backward pass exercises different lowering-state
	// transitions (gather-first): every strategy must complete it.
	hw := tinyHW()
	cfg := tinyModel()
	for _, spec := range All() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			res, err := RunLayersOpts(hw, spec, cfg, true, 1, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Elapsed <= 0 {
				t.Fatal("zero elapsed time")
			}
		})
	}
}

func TestTrainingChainCompletes(t *testing.T) {
	res, err := RunLayersOpts(tinyHW(), CAIS(), tinyModel(), true, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := RunLayersOpts(tinyHW(), CAIS(), tinyModel(), false, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= fwd.Elapsed {
		t.Fatalf("training (%v) not slower than inference (%v)", res.Elapsed, fwd.Elapsed)
	}
}

func TestCAISBeatsGlobalBarrierBaselines(t *testing.T) {
	hw := tinyHW()
	sub := model.SubLayers(tinyModel())[1]
	run := func(s Spec) sim.Time {
		res, err := RunSubLayer(hw, s, sub, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed
	}
	cais := run(CAIS())
	spnvls := run(SPNVLS())
	tpnvls := run(TPNVLS())
	ladm := run(LADM())
	if cais >= spnvls {
		t.Errorf("CAIS (%v) not faster than SP-NVLS (%v)", cais, spnvls)
	}
	if cais >= tpnvls {
		t.Errorf("CAIS (%v) not faster than TP-NVLS (%v)", cais, tpnvls)
	}
	if cais >= ladm {
		t.Errorf("CAIS (%v) not faster than LADM (%v)", cais, ladm)
	}
}

func TestCAISMergesTraffic(t *testing.T) {
	hw := tinyHW()
	sub := model.SubLayers(tinyModel())[0]
	res, err := RunSubLayer(hw, CAIS(), sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MergedLoads == 0 {
		t.Error("CAIS run produced no merged loads")
	}
	if res.Stats.CompletedReds == 0 {
		t.Error("CAIS run produced no completed reduction merges")
	}
	if res.Stats.SyncReleases == 0 {
		t.Error("coordinated CAIS run produced no group sync releases")
	}
}

func TestSpeedupHelper(t *testing.T) {
	a := Result{Elapsed: 100}
	b := Result{Elapsed: 150}
	if got := a.Speedup(b); got != 1.5 {
		t.Fatalf("speedup = %v, want 1.5", got)
	}
	if (Result{}).Speedup(b) != 0 {
		t.Fatal("zero-elapsed speedup should be 0")
	}
}

func TestResultsAreDeterministic(t *testing.T) {
	hw := tinyHW()
	sub := model.SubLayers(tinyModel())[0]
	r1, err := RunSubLayer(hw, CAIS(), sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSubLayer(hw, CAIS(), sub, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Elapsed != r2.Elapsed {
		t.Fatalf("nondeterministic: %v vs %v", r1.Elapsed, r2.Elapsed)
	}
}
