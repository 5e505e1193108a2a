package machine

import (
	"fmt"
	"strings"
	"testing"

	"cais/internal/kernel"
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
	never := kernel.Tile{Buf: stuck.NewBuffer(1), Idx: 0}
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

// TestUtilBinCoversAllLinks: Options.UtilBin attaches one recorder to
// every link, and Timeline reads it back.
func TestUtilBinCoversAllLinks(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{UtilBin: 10 * sim.Microsecond})
	m.Eng.At(0, func() {
		k := buildRSKernel(m, 8, 4<<10, m.NewBuffer(8), false)
		m.LaunchKernel(k, nil)
	})
	m.Run()
	var recorded, busy sim.Time
	for _, b := range m.Timeline().Busy {
		recorded += b
	}
	for _, l := range m.Links() {
		busy += l.BusyTime()
	}
	if busy <= 0 || recorded != busy {
		t.Fatalf("timeline recorded %v of the links' %v busy time", recorded, busy)
	}
}

// TestZeroOptionsAttachNoObservers: a machine built with zero Options
// attaches no tracer and records no timeline, so observers cost nothing
// unless a run opts in.
func TestZeroOptionsAttachNoObservers(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	if m.tr != nil {
		t.Fatal("tracer attached without Tracer or Attrib")
	}
	if !m.Timeline().IsZero() {
		t.Fatal("timeline recorded without UtilBin")
	}
}

func TestPublishTilesIdempotent(t *testing.T) {
	m := newTestMachine(t, testHW(), Options{})
	tl := kernel.Tile{Buf: m.NewBuffer(2), Idx: 1}
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

// TestTileOutsideBuffersPanics: the tracker holds only the tiles NewBuffer
// allocated. Registering or publishing any other tile is a wiring bug and
// panics naming the tile, and TileReady reports it unpublished.
func TestTileOutsideBuffersPanics(t *testing.T) {
	wantPanic := func(what string, tl kernel.Tile, fn func()) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			if want := fmt.Sprintf("tile{buf=%d idx=%d}", tl.Buf, tl.Idx); !strings.Contains(msg, want) {
				t.Errorf("%s %+v: panic %q does not name %s", what, tl, msg, want)
			}
		}()
		fn()
	}
	for _, tl := range []kernel.Tile{{Buf: 0, Idx: 0}, {Buf: -1, Idx: 0}, {Buf: 1, Idx: 2}, {Buf: 1, Idx: -1}, {Buf: 2, Idx: 0}} {
		m := newTestMachine(t, testHW(), Options{})
		if buf := m.NewBuffer(2); buf != 1 {
			t.Fatalf("first buffer ID = %d, want 1", buf)
		}
		if m.TileReady(tl) {
			t.Errorf("TileReady(%+v) = true outside every buffer", tl)
		}
		wantPanic("publishing", tl, func() { m.PublishTiles([]kernel.Tile{tl}) })
		k := &kernel.Kernel{Name: "miswired", Grid: 1, Work: func(g, tb int) kernel.TBDesc {
			return kernel.TBDesc{In: []kernel.Tile{tl}, Group: -1}
		}}
		wantPanic("registering", tl, func() { m.LaunchKernel(k, nil) })
	}
}
