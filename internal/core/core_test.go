package core

import (
	"testing"

	"cais/internal/config"
	"cais/internal/faults"
	"cais/internal/kernel"
	"cais/internal/machine"
	"cais/internal/model"
	"cais/internal/sim"
)

func coreHW() config.Hardware {
	hw := config.DGXH100()
	hw.NumGPUs = 4
	hw.NumSwitchPlanes = 2
	hw.SMsPerGPU = 8
	hw.RequestBytes = 8 << 10
	return hw
}

func TestSessionRejectsInvalidHardware(t *testing.T) {
	hw := coreHW()
	hw.NumGPUs = 0
	if _, err := NewSession(hw, machine.Options{}); err == nil {
		t.Fatal("invalid hardware accepted")
	}
}

func TestSessionRejectsInvalidFaultSchedule(t *testing.T) {
	sched := &faults.Schedule{Faults: []faults.Fault{{Kind: faults.LinkDegrade, At: 9e18, For: 9e18, Factor: 0.5}}}
	if _, err := NewSession(coreHW(), machine.Options{Faults: sched}); err == nil {
		t.Fatal("fault schedule whose repair overflows the sim clock accepted")
	}
}

func TestSessionStagedPipeline(t *testing.T) {
	s, err := NewSession(coreHW(), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := s.Builder()
	parts := b.NewParts(512, 512)
	rs := b.FusedGEMMReduce("rs", 512, 512, 256, 1,
		func(g, mi, ni int) []kernel.Tile { return nil },
		model.ReduceCAIS, kernel.Coordination{PreLaunch: true, PreAccess: true, Throttle: true}, parts)
	s.Stage(rs)
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if res.Stats.MergedReds == 0 {
		t.Fatal("fused GEMM-RS produced no merged reductions")
	}
	if res.AvgUtil <= 0 {
		t.Fatal("no link utilization")
	}
}

// TestSessionHonoursObserverOptions: a Session applies the observer
// options a strategy run does, building the attribution report and the
// utilization timeline.
func TestSessionHonoursObserverOptions(t *testing.T) {
	s, err := NewSession(coreHW(), machine.Options{Attrib: true, UtilBin: 5 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	b := s.Builder()
	s.Stage(b.NVLSAllReduce("ar", 512, 512, func(g, mi, ni int) []kernel.Tile { return nil }, b.NewLocalGrid(512, 512)))
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Attrib
	if rep == nil || rep.Elapsed != res.Elapsed || len(rep.Components) == 0 {
		t.Fatalf("attribution report %+v does not cover the run's %v", rep, res.Elapsed)
	}
	for _, c := range rep.Components {
		if c.Total() != res.Elapsed {
			t.Fatalf("%s: buckets sum to %v, want %v", c.Name, c.Total(), res.Elapsed)
		}
	}
	var busy sim.Time
	for _, b := range res.Timeline.Busy {
		busy += b
	}
	if busy <= 0 {
		t.Fatal("UtilBin set but the timeline recorded no traffic")
	}
}

func TestSessionPublishTilesSeedsInputs(t *testing.T) {
	s, err := NewSession(coreHW(), machine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	b := s.Builder()
	in := b.NewLocalGrid(256, 256)
	var tiles []kernel.Tile
	for mi := 0; mi < in.MTiles; mi++ {
		for ni := 0; ni < in.NTiles; ni++ {
			for g := 0; g < 4; g++ {
				tiles = append(tiles, in.Tile(mi, ni, g))
			}
		}
	}
	s.PublishTiles(tiles)
	out := b.NewLocalGrid(256, 256)
	k := b.GEMM("g", 256, 256, 512, 1,
		func(g, mi, ni int) []kernel.Tile { return []kernel.Tile{in.Tile(mi, ni, g)} }, out)
	s.Stage(k)
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
