package strategy

import (
	"testing"
)

// TestAttributionDoesNotPerturbSimulation: enabling attribution (which
// implicitly attaches a tracer and runs an offline interval sweep after
// the engine drains) must not change a single simulated quantity.
func TestAttributionDoesNotPerturbSimulation(t *testing.T) {
	hw := tinyHW()
	m := tinyModel()

	base, err := RunLayersOpts(hw, CAIS(), m, false, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	attributed, err := RunLayersOpts(hw, CAIS(), m, false, 1, Options{Attrib: true})
	if err != nil {
		t.Fatal(err)
	}
	if base.Elapsed != attributed.Elapsed {
		t.Fatalf("attribution changed elapsed time: %v vs %v", base.Elapsed, attributed.Elapsed)
	}
	if base.Stats != attributed.Stats {
		t.Fatalf("attribution changed stats:\nbase: %+v\nattr: %+v", base.Stats, attributed.Stats)
	}
	if base.AvgUtil != attributed.AvgUtil {
		t.Fatalf("attribution changed utilization: %v vs %v", base.AvgUtil, attributed.AvgUtil)
	}
	if attributed.Attrib == nil {
		t.Fatal("attributed run produced no report")
	}
	for _, c := range attributed.Attrib.Components {
		if c.Total() != attributed.Attrib.Elapsed {
			t.Fatalf("%s: buckets sum to %v, want %v", c.Name, c.Total(), attributed.Attrib.Elapsed)
		}
	}
}

// TestUtilBinRecordsTimeline: the declarative UtilBin knob must produce a
// non-empty timeline whose bin width round-trips, without perturbing the
// run either.
func TestUtilBinRecordsTimeline(t *testing.T) {
	hw := tinyHW()
	m := tinyModel()

	base, err := RunLayersOpts(hw, CAIS(), m, false, 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunLayersOpts(hw, CAIS(), m, false, 1, Options{UtilBin: base.Elapsed / 16})
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed != base.Elapsed {
		t.Fatalf("timeline recording changed elapsed time: %v vs %v", res.Elapsed, base.Elapsed)
	}
	if res.Timeline.Bin == 0 {
		t.Fatal("UtilBin set but no timeline recorded")
	}
	if res.Timeline.Bin != base.Elapsed/16 {
		t.Fatalf("timeline bin: got %v, want %v", res.Timeline.Bin, base.Elapsed/16)
	}
	if u := res.Timeline.Utilization(); len(u) == 0 {
		t.Fatal("timeline has no utilization bins")
	}
}
