// Package trace is the simulation-wide event tracer: instrumented
// subsystems (gpu, nvswitch, noc, machine) record spans, instants and
// async spans against simulated time, and the tracer serializes them
// as Chrome trace-event JSON loadable in Perfetto or chrome://tracing.
//
// Tracing is strictly opt-in. A nil *Tracer is a valid, disabled tracer:
// every recording method is nil-receiver safe and returns immediately, so
// instrumentation call sites cost one nil check and zero allocations when
// no tracer is attached (guarded by the benchmark in bench_test.go). The
// tracer never schedules simulation events, so attaching one cannot
// perturb the bit-reproducible engine.
//
// Timestamps: simulated picoseconds map to trace microseconds (the Chrome
// trace-event unit), keeping sub-nanosecond precision as fractional ts
// values. Processes partition the timeline by hardware component — one
// "process" per GPU and per switch plane, plus one for machine-level
// kernel spans — and threads within a process are SM slots, switch ports
// and link directions.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"unicode/utf8"

	"cais/internal/sim"
)

// Process-ID layout of the trace. Chrome trace viewers group tracks by
// pid, so each simulated hardware component gets its own process.
const (
	// PIDMachine holds machine-level tracks (kernel launch→retire spans).
	PIDMachine int32 = 0
	// pidGPUBase + gpu is the per-GPU process.
	pidGPUBase int32 = 1
	// pidSwitchBase + plane is the per-switch-plane process.
	pidSwitchBase int32 = 1000
)

// Thread-ID layout inside GPU and switch processes.
const (
	// TIDSync is the GPU-process track carrying barrier-wait spans.
	TIDSync int32 = 900
	// TIDUplinkBase + gpu is the switch-process track of one uplink.
	TIDUplinkBase int32 = 100
	// TIDDownlinkBase + gpu is the switch-process track of one downlink.
	TIDDownlinkBase int32 = 200
)

// GPUPid returns the trace process ID of a GPU.
func GPUPid(gpu int) int32 { return pidGPUBase + int32(gpu) }

// SwitchPid returns the trace process ID of a switch plane.
func SwitchPid(plane int) int32 { return pidSwitchBase + int32(plane) }

// Event phase bytes (Chrome trace-event "ph" field), exported so offline
// consumers (internal/attrib) can classify visited events.
const (
	PhaseComplete   byte = 'X'
	PhaseInstant    byte = 'i'
	PhaseAsyncBegin byte = 'b'
	PhaseAsyncEnd   byte = 'e'
)

// Event categories: the recorders in gpu, noc and nvswitch stamp them and
// internal/attrib classifies the events it visits by them.
const (
	CatTB    = "gpu.tb"         // SM-slot residency spans
	CatSync  = "gpu.sync"       // TB-group barrier waits (async)
	CatLink  = "noc.link"       // link serialization spans
	CatMerge = "nvswitch.merge" // merge sessions (async) and unit instants
)

// Event is one recorded trace event, as Visit hands it out. Dur is
// meaningful for PhaseComplete events only; ID pairs PhaseAsyncBegin with
// its PhaseAsyncEnd.
type Event struct {
	Name  string
	Cat   string
	Phase byte
	Pid   int32
	Tid   int32 // complete and instant events only
	Ts    sim.Time
	Dur   sim.Time
	ID    uint64
}

// chunkLen is the capacity of one chunk of the event log, in records.
const chunkLen = 4096

// record is one stored event. It holds no pointer, so the garbage
// collector never scans the log: name and cat index the tracer's string
// table.
type record struct {
	ts, dur   sim.Time
	id        uint64
	pid, tid  int32
	name, cat uint32
	phase     byte
}

// interned is the last string one record field interned, with its index.
type interned struct {
	s string
	i uint32
}

// Tracer accumulates trace events in memory. It is not goroutine-safe;
// the simulation engine is single-threaded by design.
//
// The log is a list of fixed-capacity chunks, so a recorded event is
// written once and never copied or re-zeroed as the log grows.
type Tracer struct {
	chunks [][]record // each of capacity chunkLen; only the last is not full
	strs   []string   // the string table; strs[0] is "", as a zero interned says
	index  map[string]uint32
	// Consecutive events mostly repeat their name and category, so each
	// field checks the string it interned last before the map.
	lastName, lastCat interned
	procs             map[int32]string
	threads           map[int64]string
	nextID            uint64
}

// New returns an empty, enabled tracer.
func New() *Tracer {
	return &Tracer{
		strs:    []string{""},
		index:   map[string]uint32{"": 0},
		procs:   make(map[int32]string),
		threads: make(map[int64]string),
	}
}

// Enabled reports whether the tracer records events (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Len reports how many events have been recorded.
func (t *Tracer) Len() int {
	if t == nil || len(t.chunks) == 0 {
		return 0
	}
	n := len(t.chunks) - 1
	return n*chunkLen + len(t.chunks[n])
}

// NextID returns a fresh async-span correlation ID.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	return t.nextID
}

// intern returns s's index in the string table.
func (t *Tracer) intern(s string, last *interned) uint32 {
	if s == last.s {
		return last.i
	}
	i, ok := t.index[s]
	if !ok {
		i = uint32(len(t.strs))
		t.strs = append(t.strs, s)
		t.index[s] = i
	}
	*last = interned{s, i}
	return i
}

// add appends one record, opening a new chunk when the last one is full.
func (t *Tracer) add(phase byte, pid, tid int32, cat, name string, ts, dur sim.Time, id uint64) {
	n := len(t.chunks)
	if n == 0 || len(t.chunks[n-1]) == chunkLen {
		t.chunks = append(t.chunks, make([]record, 0, chunkLen))
		n++
	}
	t.chunks[n-1] = append(t.chunks[n-1], record{
		ts: ts, dur: dur, id: id, pid: pid, tid: tid,
		name: t.intern(name, &t.lastName), cat: t.intern(cat, &t.lastCat),
		phase: phase,
	})
}

// Span records a complete slice [start, end) on a process thread. Slices
// on one (pid, tid) track should not overlap (use async spans for those).
// A negative duration clamps to 0.
func (t *Tracer) Span(pid, tid int32, cat, name string, start, end sim.Time) {
	if t == nil {
		return
	}
	// One statement keeps Span within the inliner's budget, so a disabled
	// call site stays a nil check.
	t.add(PhaseComplete, pid, tid, cat, name, start, max(end-start, 0), 0)
}

// Instant records a point event.
func (t *Tracer) Instant(pid, tid int32, cat, name string, at sim.Time) {
	if t == nil {
		return
	}
	t.add(PhaseInstant, pid, tid, cat, name, at, 0, 0)
}

// BeginAsync opens an overlapping span identified by (cat, id); pair with
// EndAsync using the same cat, name and id.
func (t *Tracer) BeginAsync(pid int32, cat, name string, id uint64, at sim.Time) {
	if t == nil {
		return
	}
	t.add(PhaseAsyncBegin, pid, 0, cat, name, at, 0, id)
}

// EndAsync closes the async span opened by BeginAsync.
func (t *Tracer) EndAsync(pid int32, cat, name string, id uint64, at sim.Time) {
	if t == nil {
		return
	}
	t.add(PhaseAsyncEnd, pid, 0, cat, name, at, 0, id)
}

// NameProcess labels a trace process (rendered as the track group title).
func (t *Tracer) NameProcess(pid int32, name string) {
	if t == nil {
		return
	}
	t.procs[pid] = name
}

// NameThread labels one thread inside a process.
func (t *Tracer) NameThread(pid, tid int32, name string) {
	if t == nil {
		return
	}
	t.threads[int64(pid)<<32|int64(uint32(tid))] = name
}

// Visit calls fn for every recorded event in recording order. It is
// nil-receiver safe (a disabled tracer visits nothing), so offline
// consumers need no enabled check. It stays within the inliner's budget,
// so a caller's closure inlines into the loop.
func (t *Tracer) Visit(fn func(Event)) {
	if t == nil {
		return
	}
	for _, c := range t.chunks {
		for i := range c {
			r := &c[i]
			fn(Event{
				Name: t.strs[r.name], Cat: t.strs[r.cat], Phase: r.phase,
				Pid: r.pid, Tid: r.tid, Ts: r.ts, Dur: r.dur, ID: r.id,
			})
		}
	}
}

// WriteJSON serializes the trace in the Chrome trace-event JSON object
// format ({"traceEvents": [...]}) with metadata events first. Event
// serialization is hand-rolled: traces routinely hold millions of events
// and reflective encoding would dominate export time.
func (t *Tracer) WriteJSON(w io.Writer) error {
	if t == nil {
		return fmt.Errorf("trace: nil tracer has nothing to write")
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	bw.WriteString("{\"traceEvents\":[")
	first := true
	sep := func() {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
	}

	// Metadata: stable ordering for reproducible output.
	pids := make([]int32, 0, len(t.procs))
	for pid := range t.procs {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	for _, pid := range pids {
		sep()
		fmt.Fprintf(bw, `{"name":"process_name","ph":"M","pid":%d,"args":{"name":%s}}`,
			pid, appendQuoted(nil, t.procs[pid]))
	}
	tkeys := make([]int64, 0, len(t.threads))
	for k := range t.threads {
		tkeys = append(tkeys, k)
	}
	sort.Slice(tkeys, func(i, j int) bool { return tkeys[i] < tkeys[j] })
	for _, k := range tkeys {
		pid, tid := int32(k>>32), int32(uint32(k))
		sep()
		fmt.Fprintf(bw, `{"name":"thread_name","ph":"M","pid":%d,"tid":%d,"args":{"name":%s}}`,
			pid, tid, appendQuoted(nil, t.threads[k]))
	}

	// Quote each string-table entry once; every event reuses the bytes.
	quoted := make([][]byte, len(t.strs))
	for i, s := range t.strs {
		quoted[i] = appendQuoted(nil, s)
	}
	var buf []byte
	for _, c := range t.chunks {
		for i := range c {
			r := &c[i]
			sep()
			buf = append(buf[:0], `{"name":`...)
			buf = append(buf, quoted[r.name]...)
			if t.strs[r.cat] != "" {
				buf = append(buf, `,"cat":`...)
				buf = append(buf, quoted[r.cat]...)
			}
			buf = append(buf, `,"ph":"`...)
			buf = append(buf, r.phase)
			buf = append(buf, `","pid":`...)
			buf = strconv.AppendInt(buf, int64(r.pid), 10)
			if r.phase == PhaseComplete || r.phase == PhaseInstant {
				buf = append(buf, `,"tid":`...)
				buf = strconv.AppendInt(buf, int64(r.tid), 10)
			}
			buf = append(buf, `,"ts":`...)
			buf = appendMicros(buf, r.ts)
			switch r.phase {
			case PhaseComplete:
				buf = append(buf, `,"dur":`...)
				buf = appendMicros(buf, r.dur)
			case PhaseInstant:
				buf = append(buf, `,"s":"t"`...)
			case PhaseAsyncBegin, PhaseAsyncEnd:
				buf = append(buf, `,"id":`...)
				buf = strconv.AppendUint(buf, r.id, 10)
			}
			buf = append(buf, '}')
			bw.Write(buf)
		}
	}
	bw.WriteString("],\"displayTimeUnit\":\"ns\"}")
	return bw.Flush()
}

// appendMicros renders a simulated time as trace microseconds, keeping
// picosecond precision as a fixed six-digit fraction.
func appendMicros(buf []byte, t sim.Time) []byte {
	ps := int64(t)
	if ps < 0 {
		buf = append(buf, '-')
		ps = -ps
	}
	buf = strconv.AppendInt(buf, ps/1_000_000, 10)
	frac := ps % 1_000_000
	if frac == 0 {
		return buf
	}
	buf = append(buf, '.')
	digits := strconv.AppendInt(nil, frac+1_000_000, 10) // "1ffffff"
	d := digits[1:]
	// Trim trailing zeros for compactness.
	for len(d) > 1 && d[len(d)-1] == '0' {
		d = d[:len(d)-1]
	}
	return append(buf, d...)
}

// appendQuoted appends s as a JSON string literal: `"` and `\` escaped,
// \n, \r and \t as their short escapes, other bytes below 0x20 as \u00XX,
// each byte of invalid UTF-8 as \ufffd, and everything else raw.
func appendQuoted(buf []byte, s string) []byte {
	const hex = "0123456789abcdef"
	buf = append(buf, '"')
	for i := 0; i < len(s); {
		c := s[i]
		if c >= utf8.RuneSelf {
			r, size := utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && size == 1 {
				buf = append(buf, `\ufffd`...)
			} else {
				buf = append(buf, s[i:i+size]...)
			}
			i += size
			continue
		}
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c == '\n':
			buf = append(buf, `\n`...)
		case c == '\r':
			buf = append(buf, `\r`...)
		case c == '\t':
			buf = append(buf, `\t`...)
		case c < 0x20:
			buf = append(buf, `\u00`...)
			buf = append(buf, hex[c>>4], hex[c&0xf])
		default:
			buf = append(buf, c)
		}
		i++
	}
	return append(buf, '"')
}
