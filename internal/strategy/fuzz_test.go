package strategy

import (
	"strings"
	"testing"

	"cais/internal/config"
	"cais/internal/model"
	"cais/internal/sim"
)

// FuzzHardware holds every hardware configuration to one property:
// Hardware.Validate rejects it and RunSubLayer returns that error, or a
// CAIS run of a small model's first sub-layer completes with a positive
// elapsed time. A panic, a step-limit abort or a non-positive time fails.
// The seeds are DGX-H100 cut to 4 GPUs, a 2-GPU probe with each magnitude
// that once overflowed sim.Time (three rates at 1e-300, three times at
// 2^62 ps), the negative efficiency that meant wire rate and the 2^40-byte
// element that ran without end, Fig. 2's ideal fabric, and Fig. 13a's
// unlimited merging table with no timeout.
func FuzzHardware(f *testing.F) {
	add := func(h config.Hardware) {
		f.Add(h.NumGPUs, h.NumSwitchPlanes, h.SMsPerGPU,
			h.SMFLOPs, h.HBMBandwidth, h.LinkBandwidth, h.LinkEfficiency,
			int64(h.LinkLatency), int64(h.SwitchLatency), int64(h.MergeTimeout),
			int64(h.KernelLaunchOverhead), int64(h.KernelLaunchJitter), int64(h.TBOverhead),
			h.TBTimeNoise, h.MergeTableBytes, h.RequestBytes, h.Seed,
			h.ElemBytes, h.ThrottleWindowBytes, h.CommSMs)
	}
	dgx := config.DGXH100() // at the size limits below
	dgx.NumGPUs, dgx.SMsPerGPU = 4, 16
	add(dgx)
	probe := config.DGXH100()
	probe.NumGPUs, probe.NumSwitchPlanes, probe.SMsPerGPU, probe.RequestBytes = 2, 1, 4, 32<<10
	add(probe)
	for _, extreme := range []func(*config.Hardware){
		func(h *config.Hardware) { h.LinkBandwidth = 1e-300 },
		func(h *config.Hardware) { h.SMFLOPs = 1e-300 },
		func(h *config.Hardware) { h.HBMBandwidth = 1e-300 },
		func(h *config.Hardware) { h.LinkLatency = 1 << 62 },
		func(h *config.Hardware) { h.TBOverhead = 1 << 62 },
		func(h *config.Hardware) { h.KernelLaunchOverhead = 1 << 62 },
		func(h *config.Hardware) { h.LinkEfficiency = -5 },
		func(h *config.Hardware) { h.ElemBytes = 1 << 40 },
	} {
		h := probe
		extreme(&h)
		add(h)
	}
	ideal := probe // Fig. 2
	ideal.LinkBandwidth *= 1e4
	ideal.LinkEfficiency, ideal.LinkLatency, ideal.SwitchLatency = 1, 0, 0
	add(ideal)
	unlimited := probe // Fig. 13a
	unlimited.MergeTableBytes, unlimited.MergeTimeout = -1, 0
	add(unlimited)

	sub := model.SubLayers(config.Model{Name: "probe", Hidden: 256, FFNHidden: 512, Heads: 2, SeqLen: 128, Batch: 1, Layers: 1})[0]
	f.Fuzz(func(t *testing.T, gpus, planes, sms int,
		smFLOPs, hbmBW, linkBW, linkEff float64,
		linkLat, switchLat, mergeTimeout, launchOverhead, launchJitter, tbOverhead int64,
		tbNoise float64, mergeTable, requestBytes int64, seed uint64,
		elemBytes int, throttleWindow int64, commSMs int) {
		h := config.DGXH100()
		h.NumGPUs, h.NumSwitchPlanes, h.SMsPerGPU = gpus, planes, sms
		h.SMFLOPs, h.HBMBandwidth, h.LinkBandwidth, h.LinkEfficiency = smFLOPs, hbmBW, linkBW, linkEff
		h.LinkLatency, h.SwitchLatency, h.MergeTimeout = sim.Time(linkLat), sim.Time(switchLat), sim.Time(mergeTimeout)
		h.KernelLaunchOverhead, h.KernelLaunchJitter, h.TBOverhead = sim.Time(launchOverhead), sim.Time(launchJitter), sim.Time(tbOverhead)
		h.TBTimeNoise, h.MergeTableBytes, h.RequestBytes, h.Seed = tbNoise, mergeTable, requestBytes, seed
		h.ElemBytes, h.ThrottleWindowBytes, h.CommSMs = elemBytes, throttleWindow, commSMs

		verr := h.Validate()
		if verr == nil && (h.NumGPUs > 4 || h.NumSwitchPlanes > 4 || h.SMsPerGPU > 16 ||
			h.RequestBytes < 4<<10 || h.RequestBytes > 1<<20) {
			// Valid, but too large to simulate in one fuzz exec: these
			// limits keep each exec short and are not validity rules.
			t.Skip("machine too large or requests too fine for one exec")
		}
		res, err := RunSubLayer(h, CAIS(), sub, Options{})
		switch {
		case verr != nil:
			if err == nil || !strings.Contains(err.Error(), verr.Error()) {
				t.Fatalf("%+v: Validate says %q, but RunSubLayer returned %v", h, verr, err)
			}
		case err != nil:
			t.Fatalf("%+v: valid hardware failed: %v", h, err)
		case res.Elapsed <= 0:
			t.Fatalf("%+v: elapsed %v, want > 0", h, res.Elapsed)
		}
	})
}
