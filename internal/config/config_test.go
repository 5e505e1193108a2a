package config

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cais/internal/sim"
)

func TestDGXH100IsValid(t *testing.T) {
	if err := DGXH100().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesEachField(t *testing.T) {
	cases := []struct {
		field   string // the error must name it
		breakIt func(*Hardware)
	}{
		{"NumGPUs", func(h *Hardware) { h.NumGPUs = 0 }},
		{"NumSwitchPlanes", func(h *Hardware) { h.NumSwitchPlanes = 0 }},
		{"SMsPerGPU", func(h *Hardware) { h.SMsPerGPU = 0 }},
		{"SMFLOPs", func(h *Hardware) { h.SMFLOPs = 0 }},
		{"SMFLOPs", func(h *Hardware) { h.SMFLOPs = math.NaN() }},
		{"HBMBandwidth", func(h *Hardware) { h.HBMBandwidth = -1 }},
		{"HBMBandwidth", func(h *Hardware) { h.HBMBandwidth = math.Inf(1) }},
		{"LinkBandwidth", func(h *Hardware) { h.LinkBandwidth = 0 }},
		{"LinkBandwidth", func(h *Hardware) { h.LinkBandwidth = math.NaN() }},
		{"LinkEfficiency", func(h *Hardware) { h.LinkEfficiency = math.NaN() }},
		{"LinkLatency", func(h *Hardware) { h.LinkLatency = -1 }},
		{"SwitchLatency", func(h *Hardware) { h.SwitchLatency = -sim.Nanosecond }},
		{"MergeTimeout", func(h *Hardware) { h.MergeTimeout = -1 }},
		{"KernelLaunchOverhead", func(h *Hardware) { h.KernelLaunchOverhead = -1 }},
		{"KernelLaunchJitter", func(h *Hardware) { h.KernelLaunchJitter = -5 }},
		{"TBOverhead", func(h *Hardware) { h.TBOverhead = -sim.Nanosecond }},
		{"TBTimeNoise", func(h *Hardware) { h.TBTimeNoise = -0.1 }},
		{"TBTimeNoise", func(h *Hardware) { h.TBTimeNoise = 1 }},
		{"TBTimeNoise", func(h *Hardware) { h.TBTimeNoise = math.NaN() }},
		{"RequestBytes", func(h *Hardware) { h.RequestBytes = 0 }},
		{"ElemBytes", func(h *Hardware) { h.ElemBytes = 0 }},
		{"ElemBytes", func(h *Hardware) { h.ElemBytes = 9 }},
		// Every tile's bytes scale with the element width: at 1<<40 a
		// 2-GPU sub-layer ran without end instead of failing.
		{"ElemBytes", func(h *Hardware) { h.ElemBytes = 1 << 40 }},
		// Finite magnitudes that overflow sim.Time: the three rates made
		// a layer finish faster than healthy, the two latencies panicked
		// scheduling an event before now, and the launch overhead ran
		// past what a whole-model extrapolation can represent.
		{"LinkBandwidth", func(h *Hardware) { h.LinkBandwidth = 1e-300 }},
		{"SMFLOPs", func(h *Hardware) { h.SMFLOPs = 1e-300 }},
		{"HBMBandwidth", func(h *Hardware) { h.HBMBandwidth = 1e-300 }},
		{"LinkLatency", func(h *Hardware) { h.LinkLatency = 1 << 62 }},
		{"TBOverhead", func(h *Hardware) { h.TBOverhead = 1 << 62 }},
		{"KernelLaunchOverhead", func(h *Hardware) { h.KernelLaunchOverhead = 1 << 62 }},
		// A negative efficiency silently meant wire rate.
		{"LinkEfficiency", func(h *Hardware) { h.LinkEfficiency = -5 }},
		{"LinkEfficiency", func(h *Hardware) { h.LinkEfficiency = 1.5 }},
		{"MergeTimeout", func(h *Hardware) { h.MergeTimeout = sim.Second + 1 }},
	}
	for i, c := range cases {
		h := DGXH100()
		c.breakIt(&h)
		err := h.Validate()
		if err == nil {
			t.Errorf("broken config %d (%s) accepted", i, c.field)
		} else if !strings.Contains(err.Error(), c.field) {
			t.Errorf("broken config %d: error %q does not name %s", i, err, c.field)
		}
	}
	h := DGXH100()
	h.MergeTableBytes = -1 // unlimited (Fig. 13a)
	if err := h.Validate(); err != nil {
		t.Errorf("unlimited merge table rejected: %v", err)
	}
	h = DGXH100()
	h.LinkEfficiency, h.MergeTimeout, h.TBTimeNoise = 0, 0, 0 // wire rate, no timeout, no noise
	if err := h.Validate(); err != nil {
		t.Errorf("documented zero values rejected: %v", err)
	}
	h = DGXH100() // Fig. 2's ideal fabric
	h.LinkBandwidth *= 1e4
	h.LinkEfficiency, h.LinkLatency, h.SwitchLatency = 1, 0, 0
	if err := h.Validate(); err != nil {
		t.Errorf("ideal fabric rejected: %v", err)
	}
	h = DGXH100() // every rate at its floor, every time and width at its ceiling
	h.SMFLOPs, h.HBMBandwidth, h.LinkBandwidth = minRate, minRate, minRate
	h.ElemBytes = 8
	h.LinkLatency, h.SwitchLatency, h.MergeTimeout = maxTime, maxTime, maxTime
	h.KernelLaunchOverhead, h.KernelLaunchJitter, h.TBOverhead = maxTime, maxTime, maxTime
	if err := h.Validate(); err != nil {
		t.Errorf("bounds themselves rejected: %v", err)
	}
}

func TestPlaneBandwidthAppliesEfficiency(t *testing.T) {
	h := DGXH100()
	want := h.LinkBandwidth * h.LinkEfficiency / float64(h.NumSwitchPlanes)
	if got := h.PlaneBandwidth(); got != want {
		t.Fatalf("plane bw = %g, want %g", got, want)
	}
	h.LinkEfficiency = 0 // disabled -> wire rate
	if got := h.PlaneBandwidth(); got != h.LinkBandwidth/float64(h.NumSwitchPlanes) {
		t.Fatalf("zero efficiency should mean wire rate, got %g", got)
	}
	if DGXH100().GPUFLOPs() != DGXH100().SMFLOPs*float64(DGXH100().SMsPerGPU) {
		t.Fatal("GPUFLOPs wrong")
	}
}

func TestTableIModelsMatchPaper(t *testing.T) {
	ms := TableIModels()
	if len(ms) != 3 {
		t.Fatalf("models = %d", len(ms))
	}
	type row struct{ hidden, ffn, heads, seq, batch int }
	want := map[string]row{
		"Mega-GPT-4B": {2048, 8192, 24, 1024, 16},
		"Mega-GPT-8B": {3072, 12288, 32, 1024, 12},
		"LLaMA-7B":    {4096, 11264, 32, 3072, 3},
	}
	for _, m := range ms {
		w, ok := want[m.Name]
		if !ok {
			t.Fatalf("unexpected model %q", m.Name)
		}
		if m.Hidden != w.hidden || m.FFNHidden != w.ffn || m.Heads != w.heads ||
			m.SeqLen != w.seq || m.Batch != w.batch {
			t.Errorf("%s dims do not match Table I: %+v", m.Name, m)
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%s invalid: %v", m.Name, err)
		}
	}
}

func TestModelHelpers(t *testing.T) {
	m := LLaMA7B()
	if m.Tokens() != 3*3072 {
		t.Fatalf("tokens = %d", m.Tokens())
	}
	if m.HeadDim() != 128 {
		t.Fatalf("head dim = %d", m.HeadDim())
	}
	// Table I pairs Mega-GPT-4B's hidden 2048 with 24 heads (indivisible):
	// HeadDim rounds down and validation accepts it.
	if MegaGPT4B().HeadDim() != 2048/24 {
		t.Fatalf("Mega-GPT-4B head dim = %d", MegaGPT4B().HeadDim())
	}
	if err := MegaGPT4B().Validate(); err != nil {
		t.Fatalf("Table I config rejected: %v", err)
	}
	bad := m
	bad.Batch = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero batch accepted")
	}
}

func TestModelScale(t *testing.T) {
	m := LLaMA7B()
	s := m.Scale(2)
	if s.Hidden != 2*m.Hidden || s.FFNHidden != 2*m.FFNHidden {
		t.Fatalf("scale 2: %+v", s)
	}
	if s.Hidden%s.Heads != 0 {
		t.Fatal("scaled heads must divide hidden")
	}
	f := func(factorPct uint8) bool {
		factor := 0.5 + float64(factorPct%64)/16 // 0.5 .. 4.4
		sc := m.Scale(factor)
		return sc.Hidden >= 64 && sc.Heads >= 1 && sc.Hidden%sc.Heads == 0 && sc.Validate() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeFieldsAreSane(t *testing.T) {
	h := DGXH100()
	if h.LinkLatency != 250*sim.Nanosecond {
		t.Fatalf("link latency = %v, want 250ns (Sec. IV-A)", h.LinkLatency)
	}
	if h.MergeTableBytes != 40<<10 {
		t.Fatalf("merge table = %d, want 40KB (Sec. IV-A)", h.MergeTableBytes)
	}
}
