package memo

import (
	"reflect"
	"testing"

	"cais/internal/config"
	"cais/internal/strategy"
)

// TestEntryIsResultWithoutMachine pins what the cache stores: the run's
// result with its machine cleared, whether the lookup simulated the point
// or was served from the cache.
func TestEntryIsResultWithoutMachine(t *testing.T) {
	hw := config.DGXH100()
	hw.NumGPUs = 4
	hw.NumSwitchPlanes = 2
	hw.SMsPerGPU = 16
	hw.RequestBytes = 16 << 10
	cfg := config.Model{Name: "tiny", Hidden: 512, FFNHidden: 1024, Heads: 4, SeqLen: 256, Batch: 2, Layers: 2}
	spec := strategy.CAIS()

	direct, err := strategy.RunLayersOpts(hw, spec, cfg, false, 1, strategy.Options{})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCache()
	var entries [2]Entry
	for i := range entries {
		if entries[i], err = RunLayers(c, hw, spec, cfg, false, 1, strategy.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	if c.Misses() != 1 || c.Hits() != 1 {
		t.Fatalf("%d misses and %d hits, want one of each", c.Misses(), c.Hits())
	}
	if direct.Machine == nil {
		t.Fatal("direct run's result has no machine")
	}
	if direct.UpBytes <= 0 || direct.DownBytes <= 0 {
		t.Fatalf("direction traffic up=%d down=%d, want both > 0", direct.UpBytes, direct.DownBytes)
	}
	direct.Machine = nil
	for i, e := range entries {
		if e.Machine != nil {
			t.Errorf("entry %d holds a machine", i)
		}
		if !reflect.DeepEqual(e, direct) {
			t.Errorf("entry %d differs from the direct result without its machine:\n got %+v\nwant %+v", i, e, direct)
		}
	}
}
