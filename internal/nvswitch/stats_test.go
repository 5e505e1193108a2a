package nvswitch

import (
	"reflect"
	"testing"

	"cais/internal/metrics"
	"cais/internal/sim"
)

const us = sim.Microsecond

// TestSkewAccountingPerAddress checks that arrival spread is tracked
// independently per address: interleaved arrivals to two addresses must
// each measure their own first-to-last window.
func TestSkewAccountingPerAddress(t *testing.T) {
	st := NewStatsIn(metrics.NewRegistry(), "nvswitch")
	// Address A: arrivals at 0 and 30us. Address B: 10us and 20us,
	// interleaved inside A's window.
	st.noteArrivalKind(0xA, 2, 0, true)
	st.noteArrivalKind(0xB, 2, 10*us, true)
	st.noteArrivalKind(0xB, 2, 20*us, true)
	if st.OpenSkewAddrs() != 1 {
		t.Fatalf("open addrs = %d, want 1 (A still waiting)", st.OpenSkewAddrs())
	}
	st.noteArrivalKind(0xA, 2, 30*us, true)
	if st.OpenSkewAddrs() != 0 {
		t.Fatalf("open addrs = %d, want 0", st.OpenSkewAddrs())
	}
	s := st.Summary
	if s.SkewSamples() != 2 {
		t.Fatalf("samples = %d, want 2", s.SkewSamples())
	}
	if got := s.AvgSkew(); got != 20*us { // (30 + 10) / 2
		t.Fatalf("avg skew = %v, want 20us", got)
	}
	if got := s.MaxSkew(); got != 30*us {
		t.Fatalf("max skew = %v, want 30us", got)
	}
}

// TestSkewAccountingSplitsLoadAndReduction checks the ld/red decomposition
// (Fig. 13b reports the two waiting times separately).
func TestSkewAccountingSplitsLoadAndReduction(t *testing.T) {
	st := NewStatsIn(metrics.NewRegistry(), "nvswitch")
	st.noteArrivalKind(0x1, 2, 0, true) // load pair: spread 10us
	st.noteArrivalKind(0x1, 2, 10*us, true)
	st.noteArrivalKind(0x2, 2, 0, false) // reduction pair: spread 40us
	st.noteArrivalKind(0x2, 2, 40*us, false)
	s := st.Summary
	if got := s.AvgLoadSkew(); got != 10*us {
		t.Fatalf("load skew = %v, want 10us", got)
	}
	if got := s.AvgReductionSkew(); got != 40*us {
		t.Fatalf("reduction skew = %v, want 40us", got)
	}
	if got := s.AvgSkew(); got != 25*us {
		t.Fatalf("combined skew = %v, want 25us", got)
	}
}

// TestSkewIgnoresSingletonExpectations: an address expecting a single
// request has no spread to measure and must not pollute the histogram.
func TestSkewIgnoresSingletonExpectations(t *testing.T) {
	st := NewStatsIn(metrics.NewRegistry(), "nvswitch")
	st.noteArrivalKind(0x9, 1, 5*us, true)
	st.noteArrivalKind(0x9, 0, 6*us, false)
	if st.OpenSkewAddrs() != 0 || st.Summary.SkewSamples() != 0 {
		t.Fatalf("singleton arrivals recorded: open=%d samples=%d",
			st.OpenSkewAddrs(), st.Summary.SkewSamples())
	}
}

// TestSkewMaxTracksLargestSpread: the max must survive later smaller
// samples and fold correctly across planes via Summary.Add.
func TestSkewMaxTracksLargestSpread(t *testing.T) {
	st := NewStatsIn(metrics.NewRegistry(), "nvswitch")
	st.noteArrivalKind(0x1, 2, 0, false)
	st.noteArrivalKind(0x1, 2, 50*us, false)
	st.noteArrivalKind(0x2, 2, 100*us, false)
	st.noteArrivalKind(0x2, 2, 110*us, false)
	if got := st.MaxSkew(); got != 50*us {
		t.Fatalf("max skew = %v, want 50us", got)
	}
	other := Summary{SkewMax: 80 * us}
	if got := st.Summary.Add(other).MaxSkew(); got != 80*us {
		t.Fatalf("folded max = %v, want 80us", got)
	}
}

// TestStatsRegisterIntoCentralRegistry checks the registry-backed wiring:
// counters appear under the prefix and the snapshot sees live values.
func TestStatsRegisterIntoCentralRegistry(t *testing.T) {
	reg := metrics.NewRegistry()
	st := NewStatsIn(reg, "nvswitch.plane0")
	st.MergedLoads += 5
	st.noteSessionLifetime(3 * us)
	st.noteArrivalKind(0x1, 2, 0, true)
	st.noteArrivalKind(0x1, 2, 8*us, true)
	snap := reg.Snapshot()
	if v := snap.Value("nvswitch.plane0.merged_loads"); v != 5 {
		t.Fatalf("merged_loads = %v, want 5", v)
	}
	if v := snap.Value("nvswitch.plane0.skew_sum_ps"); v != float64(8*us) {
		t.Fatalf("skew_sum_ps = %v, want %v", v, float64(8*us))
	}
	m, ok := snap.Get("nvswitch.plane0.session_lifetime_us")
	if !ok || m.Kind != "hist" || m.Count != 1 {
		t.Fatalf("session lifetime hist = %+v ok=%v", m, ok)
	}
	if s := st.Summary; s.MergedLoads != 5 || s.SessLifeCount != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if got := st.AvgSessionLifetime(); got != 3*us {
		t.Fatalf("avg lifetime = %v, want 3us", got)
	}
}

// TestSummaryAverageArithmeticIsExact: sums are integer picoseconds, so
// folded averages must reproduce exact integer division (bit-reproducible
// figure output depends on this).
func TestSummaryAverageArithmeticIsExact(t *testing.T) {
	a := Summary{SkewSum: 7 * us, SkewCount: 2}
	b := Summary{SkewSum: 8 * us, SkewCount: 1}
	if got := a.Add(b).AvgSkew(); got != 5*us {
		t.Fatalf("avg = %v, want exactly 5us", got)
	}
	var empty Summary
	if empty.AvgSkew() != 0 || empty.AvgLoadSkew() != 0 ||
		empty.AvgReductionSkew() != 0 || empty.AvgSessionLifetime() != 0 {
		t.Fatal("empty summary averages must be 0")
	}
}

// TestSummaryFieldsWired sets every Summary field to a distinct value and
// checks that the registry reports each under its tag — a counter, or a
// gauge for the skew_max_ps high-water mark — and that Add sums every
// field but folds SkewMax by maximum.
func TestSummaryFieldsWired(t *testing.T) {
	reg := metrics.NewRegistry()
	st := NewStatsIn(reg, "p")
	typ := reflect.TypeOf(Summary{})
	live := reflect.ValueOf(&st.Summary).Elem()
	var big Summary
	bigV := reflect.ValueOf(&big).Elem()
	for i := 0; i < typ.NumField(); i++ {
		live.Field(i).SetInt(int64(i + 1))
		bigV.Field(i).SetInt(int64(100 * (i + 1)))
	}
	snap := reg.Snapshot()
	if got, want := snap.Len(), typ.NumField()+2; got != want {
		t.Fatalf("registry holds %d metrics, want %d: one per Summary field plus two histograms", got, want)
	}
	fwd, rev := st.Summary.Add(big), big.Add(st.Summary)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		if f.Tag.Get("metric") == "" {
			t.Errorf("%s has no metric tag", f.Name)
		}
		name, kind, folded := "p."+f.Tag.Get("metric"), "counter", int64(101*(i+1))
		if f.Name == "SkewMax" {
			name, kind, folded = "p.skew_max_ps", "gauge", int64(100*(i+1))
		}
		if m, ok := snap.Get(name); !ok || m.Kind != kind || m.Value != float64(i+1) {
			t.Errorf("%s: registry %q = %+v (present %v), want %s %d", f.Name, name, m, ok, kind, i+1)
		}
		if a, b := reflect.ValueOf(fwd).Field(i).Int(), reflect.ValueOf(rev).Field(i).Int(); a != folded || b != folded {
			t.Errorf("%s: Add folds to %d / %d (both orders), want %d", f.Name, a, b, folded)
		}
	}
}
