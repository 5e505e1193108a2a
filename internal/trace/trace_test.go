package trace

import (
	"encoding/json"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"

	"cais/internal/sim"
)

func TestNilTracerIsDisabledAndSafe(t *testing.T) {
	var tr *Tracer
	if tr.Enabled() {
		t.Fatal("nil tracer must report disabled")
	}
	// Every recording method must be a no-op on the nil receiver.
	tr.Span(1, 2, "cat", "name", 0, 10)
	tr.Instant(1, 2, "cat", "name", 5)
	tr.BeginAsync(1, "cat", "name", 7, 0)
	tr.EndAsync(1, "cat", "name", 7, 10)
	tr.NameProcess(1, "p")
	tr.NameThread(1, 2, "t")
	if tr.Len() != 0 || tr.NextID() != 0 {
		t.Fatal("nil tracer must record nothing")
	}
	if err := tr.WriteJSON(&strings.Builder{}); err == nil {
		t.Fatal("nil tracer WriteJSON must error")
	}
}

// chromeEvent is the decoded shape used to validate serialization.
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	Pid  int     `json:"pid"`
	Tid  int     `json:"tid"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur"`
	ID   uint64  `json:"id"`
	Args map[string]any
}

func decode(t *testing.T, tr *Tracer) []chromeEvent {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !utf8.ValidString(sb.String()) {
		t.Fatalf("emitted trace is not valid UTF-8:\n%q", sb.String())
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &doc); err != nil {
		t.Fatalf("emitted trace is not valid JSON: %v\n%s", err, sb.String())
	}
	return doc.TraceEvents
}

func TestWriteJSONChromeFormat(t *testing.T) {
	tr := New()
	tr.NameProcess(GPUPid(0), "gpu0")
	tr.NameThread(GPUPid(0), 3, "sm3")
	tr.Span(GPUPid(0), 3, "gpu.tb", "gemm", 2*sim.Microsecond, 5*sim.Microsecond)
	tr.Instant(GPUPid(0), 3, "gpu.tb", "evict", 7*sim.Microsecond)
	id := tr.NextID()
	tr.BeginAsync(SwitchPid(1), "nvswitch.merge", "red.session", id, sim.Microsecond)
	tr.EndAsync(SwitchPid(1), "nvswitch.merge", "red.session", id, 4*sim.Microsecond)

	evs := decode(t, tr)
	if len(evs) != 6 { // 2 metadata + 4 events
		t.Fatalf("event count = %d, want 6", len(evs))
	}
	byPh := map[string]int{}
	for _, e := range evs {
		byPh[e.Ph]++
	}
	for _, ph := range []string{"M", "X", "i", "b", "e"} {
		if byPh[ph] == 0 {
			t.Fatalf("missing phase %q in %v", ph, byPh)
		}
	}
	// The complete span: ts in microseconds, dur = 3us.
	for _, e := range evs {
		if e.Ph == "X" {
			if e.Ts != 2 || e.Dur != 3 {
				t.Fatalf("span ts/dur = %v/%v, want 2/3", e.Ts, e.Dur)
			}
			if e.Pid != int(GPUPid(0)) || e.Tid != 3 {
				t.Fatalf("span pid/tid = %d/%d", e.Pid, e.Tid)
			}
		}
	}
	merge := 0
	tr.Visit(func(e Event) {
		if e.Cat == CatMerge {
			merge++
		}
	})
	if merge != 2 {
		t.Fatalf("visited %d %s events, want 2", merge, CatMerge)
	}
}

func TestSubMicrosecondPrecision(t *testing.T) {
	tr := New()
	// 1.5 ns = 1500 ps = 0.0015 us must survive the ps->us mapping.
	tr.Span(0, 0, "c", "n", 1500*sim.Picosecond, 3000*sim.Picosecond)
	evs := decode(t, tr)
	if evs[0].Ts != 0.0015 || evs[0].Dur != 0.0015 {
		t.Fatalf("ts/dur = %v/%v, want 0.0015/0.0015", evs[0].Ts, evs[0].Dur)
	}
}

// TestMicrosRendering pins the ps -> us rendering: whole microseconds
// print bare, fractions keep picosecond precision without trailing zeros,
// and a negative time keeps its sign.
func TestMicrosRendering(t *testing.T) {
	cases := []struct {
		ps   sim.Time
		want string
	}{
		{0, "0"},
		{1_000_000, "1"},
		{1_500_000, "1.5"},
		{123, "0.000123"},
		{-2_500_000, "-2.5"},
	}
	for _, c := range cases {
		if got := string(appendMicros(nil, c.ps)); got != c.want {
			t.Errorf("appendMicros(%d) = %q, want %q", int64(c.ps), got, c.want)
		}
	}
}

func TestSpanClampsNegativeDuration(t *testing.T) {
	tr := New()
	tr.Span(0, 0, "c", "n", 10, 5)
	evs := decode(t, tr)
	if evs[0].Dur != 0 {
		t.Fatalf("negative duration must clamp to 0, got %v", evs[0].Dur)
	}
}

// TestNameEscaping checks that every name comes back through a JSON
// parser: control bytes as \u00XX, DEL raw, invalid UTF-8 as U+FFFD. A
// printable ASCII name renders as strconv.Quote renders it, so the traces
// of the shipped names keep their bytes.
func TestNameEscaping(t *testing.T) {
	tr := New()
	tr.NameProcess(0, "proc\x02")
	tr.Span(0, 0, `cat"quote`, "name\nnewline", 0, 1)
	names := []struct{ in, want string }{
		{"a\x01b", "a\x01b"},
		{"del\x7f", "del\x7f"},
		{"bad\xff", "bad\uFFFD"},
		{"tab\tcr\r\x1f", "tab\tcr\r\x1f"},
		{"µs ok \uFFFD", "µs ok \uFFFD"},
	}
	for _, n := range names {
		tr.Instant(0, 0, "c", n.in, 0)
	}
	evs := decode(t, tr)
	if evs[0].Args["name"] != "proc\x02" {
		t.Errorf("process name: got %q", evs[0].Args["name"])
	}
	if evs[1].Name != "name\nnewline" || evs[1].Cat != `cat"quote` {
		t.Fatalf("escaping roundtrip failed: %+v", evs[1])
	}
	for i, n := range names {
		if got := evs[2+i].Name; got != n.want {
			t.Errorf("name %q decodes as %q, want %q", n.in, got, n.want)
		}
	}

	var ascii []byte
	for c := byte(0x20); c < 0x7f; c++ {
		ascii = append(ascii, c)
	}
	if got, want := string(appendQuoted(nil, string(ascii))), strconv.Quote(string(ascii)); got != want {
		t.Errorf("printable ASCII quotes as %s, want %s", got, want)
	}
}

// TestChunkedLogVisitsInOrder records three full chunks and a partial one,
// mixing the four phases and cycling through more names than the
// one-entry cache holds, and checks that Visit hands back every field in
// recording order across the chunk boundaries, without allocating.
func TestChunkedLogVisitsInOrder(t *testing.T) {
	names := []string{"gemm", "ld", "red", "ld", "sync", "gemm", "evict", "x"}
	cats := []string{CatTB, CatLink, "", CatMerge}
	tr := New()
	var want []Event
	for i := 0; i < 3*chunkLen+777; i++ {
		name, cat := names[(i/3)%len(names)], cats[(i/5)%len(cats)]
		pid, tid, at := int32(i%7), int32(i%11), sim.Time(i)*sim.Nanosecond
		switch i % 4 {
		case 0:
			tr.Span(pid, tid, cat, name, at, at+sim.Time(i%13))
			want = append(want, Event{Name: name, Cat: cat, Phase: PhaseComplete, Pid: pid, Tid: tid, Ts: at, Dur: sim.Time(i % 13)})
		case 1:
			tr.Instant(pid, tid, cat, name, at)
			want = append(want, Event{Name: name, Cat: cat, Phase: PhaseInstant, Pid: pid, Tid: tid, Ts: at})
		case 2:
			tr.BeginAsync(pid, cat, name, uint64(i)<<40, at)
			want = append(want, Event{Name: name, Cat: cat, Phase: PhaseAsyncBegin, Pid: pid, Ts: at, ID: uint64(i) << 40})
		case 3:
			tr.EndAsync(pid, cat, name, uint64(i), at)
			want = append(want, Event{Name: name, Cat: cat, Phase: PhaseAsyncEnd, Pid: pid, Ts: at, ID: uint64(i)})
		}
	}
	if tr.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", tr.Len(), len(want))
	}
	i := 0
	tr.Visit(func(e Event) {
		if i < len(want) && e != want[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, e, want[i])
		}
		i++
	})
	if i != len(want) {
		t.Fatalf("visited %d events, want %d", i, len(want))
	}
	if allocs := testing.AllocsPerRun(1, func() { tr.Visit(func(Event) {}) }); allocs != 0 {
		t.Errorf("Visit allocates %v times, want 0", allocs)
	}
	if evs := decode(t, tr); len(evs) != len(want) {
		t.Fatalf("WriteJSON wrote %d events, want %d", len(evs), len(want))
	}
}

// TestRecordHoldsNoPointers: the stored record must stay pointer-free, so
// the garbage collector never scans the event log.
func TestRecordHoldsNoPointers(t *testing.T) {
	var check func(path string, typ reflect.Type)
	check = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s", path, typ.Kind())
		case reflect.Array:
			check(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				check(path+"."+typ.Field(i).Name, typ.Field(i).Type)
			}
		}
	}
	check("record", reflect.TypeOf(record{}))
}

// TestDisabledInstrumentationAllocatesNothing guards the opt-in guarantee:
// with no tracer attached, an instrumentation call site is a nil check and
// must not allocate.
func TestDisabledInstrumentationAllocatesNothing(t *testing.T) {
	var tr *Tracer
	allocs := testing.AllocsPerRun(1000, func() {
		tr.Span(1, 2, "gpu.tb", "gemm", 0, 10)
		tr.Instant(1, 2, "gpu.sync", "wait", 5)
		tr.BeginAsync(3, "kernel", "k", 1, 0)
		tr.EndAsync(3, "kernel", "k", 1, 10)
		tr.Visit(func(Event) {}) // the attribution reader is nil-safe too
	})
	if allocs != 0 {
		t.Fatalf("disabled tracer hot path allocates %v bytes-equiv/op, want 0", allocs)
	}
}
