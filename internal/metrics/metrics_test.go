package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"cais/internal/sim"
)

func TestUtilSeriesBinsIntervals(t *testing.T) {
	s := NewUtilSeries(10*sim.Microsecond, 1)
	// Busy 5us in bin 0, spanning interval into bin 1.
	s.RecordBusy(5*sim.Microsecond, 15*sim.Microsecond, 0)
	u := s.Timeline().Utilization()
	if len(u) != 2 {
		t.Fatalf("bins = %d, want 2", len(u))
	}
	if u[0] != 0.5 || u[1] != 0.5 {
		t.Fatalf("utilization = %v, want [0.5 0.5]", u)
	}
}

func TestUtilSeriesMultiLinkNormalization(t *testing.T) {
	s := NewUtilSeries(10*sim.Microsecond, 2)
	s.RecordBusy(0, 10*sim.Microsecond, 0) // link A fully busy
	u := s.Timeline().Utilization()
	if u[0] != 0.5 {
		t.Fatalf("two-link normalization: %v, want 0.5", u[0])
	}
}

func TestUtilSeriesConservesBusyTime(t *testing.T) {
	f := func(intervals []uint16) bool {
		s := NewUtilSeries(7*sim.Microsecond, 1)
		var total sim.Time
		at := sim.Time(0)
		for _, d := range intervals {
			dur := sim.Time(d) * sim.Nanosecond
			s.RecordBusy(at, at+dur, 0)
			total += dur
			at += dur + sim.Microsecond
		}
		var binned sim.Time
		for _, b := range s.busy {
			binned += b
		}
		return binned == total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestUtilSeriesMean: back-to-back intervals fill bin 0 and half of bin
// 1, a mean utilization of 0.75 over the run.
func TestUtilSeriesMean(t *testing.T) {
	s := NewUtilSeries(10*sim.Microsecond, 1)
	s.RecordBusy(0, 10*sim.Microsecond, 0)
	s.RecordBusy(10*sim.Microsecond, 15*sim.Microsecond, 0)
	if u := s.Timeline().Utilization(); len(u) != 2 || u[0] != 1 || u[1] != 0.5 {
		t.Fatalf("utilization = %v, want [1 0.5]", u)
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 8}); math.Abs(g-4) > 1e-9 {
		t.Fatalf("geomean(2,8) = %v, want 4", g)
	}
	if g := Geomean([]float64{1.5, 0, -2}); math.Abs(g-1.5) > 1e-9 {
		t.Fatalf("geomean skips non-positive: %v", g)
	}
	if Geomean(nil) != 0 {
		t.Fatal("empty geomean should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Fig. X", "name", "value")
	tb.AddRow("alpha", "1.00")
	tb.Addf("beta", 2.5, sim.Microsecond)
	out := tb.String()
	for _, want := range []string{"Fig. X", "name", "alpha", "beta", "2.5", "1.000us", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, 2 rows
		t.Fatalf("lines = %d, want 5:\n%s", len(lines), out)
	}
}

// TestUtilSeriesLongIntervalPreSizes is the regression test for the
// RecordBusy growth fix: one interval spanning many bins must pre-size the
// bin slice in a single grow and still conserve busy time.
func TestUtilSeriesLongIntervalPreSizes(t *testing.T) {
	bin := sim.Microsecond
	s := NewUtilSeries(bin, 1)
	const bins = 200_000
	start := 500 * sim.Nanosecond
	end := sim.Time(bins)*bin + 500*sim.Nanosecond
	s.RecordBusy(start, end, 0)
	if len(s.busy) != bins+1 {
		t.Fatalf("bins = %d, want %d", len(s.busy), bins+1)
	}
	if c := cap(s.busy); c < bins+1 {
		t.Fatalf("cap = %d, want >= %d", c, bins+1)
	}
	var total sim.Time
	for _, b := range s.busy {
		if b > bin {
			t.Fatalf("bin overfilled: %v > %v", b, bin)
		}
		total += b
	}
	if total != end-start {
		t.Fatalf("binned total = %v, want %v", total, end-start)
	}
	// Interior bins are fully busy; the two edge bins are half busy.
	if s.busy[0] != bin-start || s.busy[bins] != 500*sim.Nanosecond {
		t.Fatalf("edge bins = %v/%v", s.busy[0], s.busy[bins])
	}
	u := s.Timeline().Utilization()
	if u[1] != 1 || u[bins/2] != 1 {
		t.Fatalf("interior bins must be fully utilized: %v %v", u[1], u[bins/2])
	}
}

// TestAddfNonFiniteFloats guards the Addf rendering fix: NaN and ±Inf must
// render as an explicit "n/a" instead of %.3g garbage.
func TestAddfNonFiniteFloats(t *testing.T) {
	tb := NewTable("", "a", "b", "c", "d")
	tb.Addf(math.NaN(), math.Inf(1), math.Inf(-1), 1.25)
	got := tb.Rows[0]
	want := []string{"n/a", "n/a", "n/a", "1.25"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cell %d = %q, want %q (row %v)", i, got[i], want[i], got)
		}
	}
	if out := tb.String(); strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Fatalf("rendered table leaks non-finite values:\n%s", out)
	}
}

func TestUtilSeriesRejectsBadBin(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero bin width accepted")
		}
	}()
	NewUtilSeries(0, 1)
}
