package faults_test

import (
	"testing"

	"cais/internal/config"
	"cais/internal/faults"
	"cais/internal/model"
	"cais/internal/strategy"
)

// FuzzParse holds every fault schedule to one property: Parse rejects it,
// Validate rejects it, or a small CAIS sub-layer run under it completes
// within the engine's step limit. A panic or an unfinished run fails.
// The seeds follow a GPU health-event taxonomy — NVLink errors, a GPU
// fallen off the bus (XID 79), thermal throttling, ECC double-bit errors,
// a fatal switch error — plus schedules that once passed Validate and then
// panicked or ran to a nonsense time.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		// NVLink CRC errors: one GPU's lanes retrain at reduced width.
		`{"faults": [{"kind": "link-degrade", "at_us": 2, "for_us": 30, "plane": -1, "gpu": 3, "factor": 0.5}]}`,
		// NVLink down: one uplink drops, then retrains.
		`{"faults": [{"kind": "link-down", "at_us": 5, "for_us": 20, "plane": 1, "gpu": 2, "dir": "up"}]}`,
		// XID 79, GPU fallen off the bus: every link of one GPU stalls.
		`{"faults": [{"kind": "link-down", "at_us": 0, "for_us": 15, "plane": -1, "gpu": 4}]}`,
		// Thermal slowdown.
		`{"faults": [{"kind": "straggler", "at_us": 0, "gpu": 0, "factor": 2.5}]}`,
		// ECC double-bit error in one plane's merge tables.
		`{"faults": [{"kind": "merge-disable", "at_us": 1, "for_us": 10, "plane": 0, "gpu": -1}]}`,
		// Fatal switch error: a plane dies for good while another flaps.
		`{"faults": [{"kind": "plane-down", "at_us": 3, "plane": 2},
			{"kind": "plane-down", "at_us": 0, "for_us": 8, "plane": 1}]}`,
		// Repair time past the end of the sim clock.
		`{"faults": [{"kind": "link-degrade", "at_us": 9e12, "for_us": 9e12, "factor": 0.5}]}`,
		// Magnitudes whose slowed times overflow sim.Time: a near-zero
		// degrade on every link, a 1e30 straggler, and a link-down window
		// that ends about 104 days in.
		`{"faults": [{"kind": "link-degrade", "at_us": 0, "for_us": 100, "plane": -1, "gpu": -1, "factor": 1e-300}]}`,
		`{"faults": [{"kind": "straggler", "at_us": 0, "for_us": 100, "gpu": 0, "factor": 1e30}]}`,
		`{"faults": [{"kind": "link-down", "at_us": 0, "for_us": 9e12, "plane": 0, "gpu": 0}]}`,
		// Every plane down at once, each only briefly.
		`{"faults": [{"kind": "plane-down", "at_us": 0, "for_us": 100, "plane": 0},
			{"kind": "plane-down", "at_us": 0, "for_us": 100, "plane": 1},
			{"kind": "plane-down", "at_us": 0, "for_us": 100, "plane": 2},
			{"kind": "plane-down", "at_us": 0, "for_us": 100, "plane": 3}]}`,
		`{"faults": [{"kind": "gamma-ray"}]}`,
		`not json`,
	} {
		f.Add([]byte(seed))
	}
	hw := config.DGXH100()
	hw.SMsPerGPU = 16
	sub := model.SubLayers(config.Model{Name: "tiny", Hidden: 512, FFNHidden: 1024, Heads: 4, SeqLen: 128, Batch: 1, Layers: 1})[0]
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := faults.Parse(data)
		if err != nil {
			return
		}
		if err := s.Validate(hw.NumGPUs, hw.NumSwitchPlanes); err != nil {
			return
		}
		if _, err := strategy.RunSubLayer(hw, strategy.CAIS(), sub, strategy.Options{Faults: s}); err != nil {
			t.Fatalf("valid schedule %s: %v", data, err)
		}
	})
}
