package strategy

import (
	"strings"
	"testing"

	"cais/internal/kernel"
	"cais/internal/machine"
	"cais/internal/model"
)

func computeOnly(name string, grid int, flops float64) *kernel.Kernel {
	return &kernel.Kernel{
		Name: name, Kind: kernel.KindGEMM, Grid: grid,
		Work: func(g, tb int) kernel.TBDesc {
			return kernel.TBDesc{Flops: flops, Group: -1}
		},
	}
}

// runTinySub runs one tiny sub-layer and returns the result for
// structural inspection.
func runTinySub(t *testing.T, spec Spec) Result {
	t.Helper()
	res, err := RunSubLayer(tinyHW(), spec, model.SubLayers(tinyModel())[0], Options{})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func countSpans(m *machine.Machine, substr string) int {
	n := 0
	for _, s := range m.KernelSpans {
		if strings.Contains(s.Name, substr) {
			n++
		}
	}
	return n
}

func TestCoCoNetLaunchesPerChunkCollectives(t *testing.T) {
	coco := runTinySub(t, CoCoNet())
	fuse := runTinySub(t, FuseLib())
	// CoCoNet pays one kernel launch per chunk; FuseLib fuses the chunked
	// collective into a single kernel.
	cocoAR := countSpans(coco.Machine, "ar.")
	fuseAR := countSpans(fuse.Machine, "ar.")
	if cocoAR != CoCoNet().Chunks {
		t.Fatalf("CoCoNet AR kernels = %d, want %d chunks", cocoAR, CoCoNet().Chunks)
	}
	if fuseAR != 1 {
		t.Fatalf("FuseLib AR kernels = %d, want 1 fused", fuseAR)
	}
	if countSpans(coco.Machine, "gate.") != 1 || countSpans(fuse.Machine, "gate.") != 1 {
		t.Fatal("chunked overlap needs exactly one gate kernel")
	}
}

func TestGlobalBarriersSerializeSpans(t *testing.T) {
	res := runTinySub(t, TPNVLS())
	spans := res.Machine.KernelSpans
	if len(spans) < 3 {
		t.Fatalf("spans = %d", len(spans))
	}
	// Under global barriers each kernel starts after the previous ended.
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End {
			t.Fatalf("span %q starts (%v) before %q ends (%v) despite global barriers",
				spans[i].Name, spans[i].Start, spans[i-1].Name, spans[i-1].End)
		}
	}
}

func TestCAISSpansOverlap(t *testing.T) {
	res := runTinySub(t, CAIS())
	spans := res.Machine.KernelSpans
	if len(spans) != 3 { // GEMM-RS, LN, AG-GEMM: all launched together
		t.Fatalf("spans = %d, want 3 fused-pipeline kernels", len(spans))
	}
	overlapped := false
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].End {
			overlapped = true
		}
	}
	if !overlapped {
		t.Fatal("CAIS pipeline kernels never overlapped")
	}
}

func TestT3UsesDirectStoresNotMergeUnit(t *testing.T) {
	res := runTinySub(t, T3())
	st := res.Stats
	if st.MergedReds != 0 || st.MergedLoads != 0 {
		t.Fatalf("T3 must not use the CAIS merge unit: %d/%d", st.MergedReds, st.MergedLoads)
	}
	if st.PushReduces != 0 || st.PullReduces != 0 {
		t.Fatal("plain T3 must not use NVLS either")
	}
}

func TestT3NVLSUsesPushReduction(t *testing.T) {
	res := runTinySub(t, T3NVLS())
	st := res.Stats
	if st.PushReduces == 0 {
		t.Fatal("T3-NVLS must reduce through the NVLS unit")
	}
	if st.MergedReds != 0 {
		t.Fatal("T3-NVLS must not use the CAIS merge table")
	}
	if st.MulticastStores == 0 {
		t.Fatal("T3-NVLS AllGather must use multimem.st multicast")
	}
}

func TestSPNVLSUsesPullAndMulticast(t *testing.T) {
	res := runTinySub(t, SPNVLS())
	st := res.Stats
	if st.PullReduces == 0 {
		t.Fatal("SP-NVLS ReduceScatter must use multimem.ld_reduce")
	}
	if st.MulticastStores == 0 {
		t.Fatal("SP-NVLS AllGather must use multimem.st")
	}
}

func TestLADMGeneratesRedundantTraffic(t *testing.T) {
	ladm := runTinySub(t, LADM())
	cais := runTinySub(t, CAIS())
	var ladmBytes, caisBytes int64
	for _, l := range ladm.Machine.Links() {
		ladmBytes += l.BytesSent()
	}
	for _, l := range cais.Machine.Links() {
		caisBytes += l.BytesSent()
	}
	if ladmBytes <= caisBytes {
		t.Fatalf("LADM traffic (%d) should exceed CAIS (%d): per-TB fetches are redundant",
			ladmBytes, caisBytes)
	}
}

func TestCoordinationSpecWiring(t *testing.T) {
	c := CAIS().coordination()
	if !c.PreLaunch || !c.PreAccess || !c.Throttle {
		t.Fatal("CAIS coordination incomplete")
	}
	n := CAISNoCoord().coordination()
	if n.PreLaunch || n.PreAccess || n.Throttle {
		t.Fatal("CAIS-w/o-Coord must disable coordination")
	}
}

// TestBarrierPlanPlacement pins how each barrier mode places kernels
// into a session's launch waves: Global gives each kernel its own wave,
// Stage groups one op's kernels, and None accumulates successive ops.
func TestBarrierPlanPlacement(t *testing.T) {
	// waves places kernels a and b as one op, or as two when split, and
	// returns the launch waves they ran in.
	waves := func(mode BarrierMode, split bool) (int, int) {
		s := tinySession(t)
		a, b := computeOnly("a", 4, 1), computeOnly("b", 4, 1)
		if split {
			place(s, mode, a)
			place(s, mode, b)
		} else {
			place(s, mode, a, b)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		spans := s.Machine().KernelSpans
		return spans[0].Wave, spans[1].Wave
	}
	if a, b := waves(BarrierGlobal, false); a == b {
		t.Fatal("global: both kernels share a wave")
	}
	if a, b := waves(BarrierStage, false); a != b {
		t.Fatal("stage mode must group the op's kernels")
	}
	if a, b := waves(BarrierNone, true); a != b {
		t.Fatal("barrier-none must accumulate one stage")
	}
}
