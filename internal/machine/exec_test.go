package machine

import (
	"testing"

	"cais/internal/kernel"
	"cais/internal/metrics"
	"cais/internal/noc"
	"cais/internal/sim"
)

func TestLaunchAllEmptyAndSequenceEmpty(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	calls := 0
	m.LaunchAll(nil, func() { calls++ })
	if calls != 1 {
		t.Fatal("an empty batch must complete immediately")
	}
	if done, _, err := m.RunStages(nil); err != nil || done != 0 {
		t.Fatalf("empty staged plan: done=%v err=%v, want 0 and no error", done, err)
	}
}

// TestRunStages pins the staged-plan runner both entry points share:
// stages run back to back, the plan finishes no later than the queue
// drains, and a stuck plan returns the quiescence error.
func TestRunStages(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	done, drained, err := m.RunStages([][]*kernel.Kernel{
		{computeOnly("a", 4, 1e8)}, {computeOnly("b", 4, 1e8)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 || drained < done {
		t.Fatalf("done=%v drained=%v", done, drained)
	}
	if m.KernelSpans[1].Start < m.KernelSpans[0].End {
		t.Fatal("stage b launched before stage a retired")
	}

	stuck := newTestMachine(t, testHW(), Options{})
	never := kernel.Tile{Buf: 999, Idx: 0}
	k := &kernel.Kernel{Name: "stuck", Grid: 1, Work: func(g, tb int) kernel.TBDesc {
		return kernel.TBDesc{In: []kernel.Tile{never}, Group: -1}
	}}
	if _, _, err := stuck.RunStages([][]*kernel.Kernel{{k}}); err == nil {
		t.Fatal("stuck plan reported no error")
	}
}

func TestKernelSpansRecorded(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	if _, _, err := m.RunStages([][]*kernel.Kernel{{computeOnly("a", 4, 1e8)}, {computeOnly("b", 4, 1e8)}}); err != nil {
		t.Fatal(err)
	}
	if len(m.KernelSpans) != 2 {
		t.Fatalf("spans = %d, want 2", len(m.KernelSpans))
	}
	for _, s := range m.KernelSpans {
		if s.End <= s.Start {
			t.Fatalf("span %s has no duration", s.Name)
		}
	}
	if m.KernelSpans[1].Start < m.KernelSpans[0].End {
		t.Fatal("sequence spans must not overlap")
	}
}

func TestContributionInconsistencyPanics(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	m.addContribution(0, 99, 100, 10, nil, kernel.Tile{})
	defer func() {
		if recover() == nil {
			t.Fatal("inconsistent contribution need did not panic")
		}
	}()
	m.addContribution(0, 99, 200, 10, nil, kernel.Tile{})
}

func TestOnDataIgnoresUntaggedPackets(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	m.OnData(0, &noc.Packet{Op: noc.OpStore, Size: 128}) // no tag: no-op
	if len(m.contrib) != 0 {
		t.Fatal("untagged packet created contribution state")
	}
}

func TestAttachRecorderCoversAllLinks(t *testing.T) {
	hw := testHW()
	m := newTestMachine(t, hw, Options{})
	rec := metrics.NewUtilSeries(10*sim.Microsecond, len(m.Links()))
	m.AttachRecorder(rec)
	m.Eng.At(0, func() {
		k := buildRSKernel(m, 8, 4<<10, m.NewBuffer(), false)
		m.LaunchKernel(k, nil)
	})
	m.Run()
	if rec.Mean(0) <= 0 {
		t.Fatal("recorder saw no traffic despite remote reductions")
	}
}

func TestPublishTilesIdempotent(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	tl := kernel.Tile{Buf: 5, Idx: 1}
	m.PublishTiles([]kernel.Tile{tl})
	n := m.PublishedTiles
	m.PublishTiles([]kernel.Tile{tl})
	if m.PublishedTiles != n {
		t.Fatal("republishing must be a no-op")
	}
	if !m.TileReady(tl) {
		t.Fatal("tile not ready")
	}
}
