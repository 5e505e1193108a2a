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

// Internal aliases keep the recording methods terse.
const (
	phComplete   = PhaseComplete
	phInstant    = PhaseInstant
	phAsyncBegin = PhaseAsyncBegin
	phAsyncEnd   = PhaseAsyncEnd
)

type event struct {
	name string
	cat  string
	ph   byte
	pid  int32
	tid  int32
	ts   sim.Time
	dur  sim.Time // complete events only
	id   uint64   // async events only
}

// Tracer accumulates trace events in memory. It is not goroutine-safe;
// the simulation engine is single-threaded by design.
type Tracer struct {
	events  []event
	procs   map[int32]string
	threads map[int64]string
	nextID  uint64
}

// New returns an empty, enabled tracer. The event buffer is pre-sized:
// even a quick sub-layer run emits thousands of events, so starting from a
// nil slice costs a dozen doubling copies per run for nothing.
func New() *Tracer {
	return &Tracer{
		events:  make([]event, 0, 4096),
		procs:   make(map[int32]string),
		threads: make(map[int64]string),
	}
}

// Enabled reports whether the tracer records events (false for nil).
func (t *Tracer) Enabled() bool { return t != nil }

// Len reports how many events have been recorded.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// NextID returns a fresh async-span correlation ID.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	t.nextID++
	return t.nextID
}

// Span records a complete slice [start, end) on a process thread. Slices
// on one (pid, tid) track should not overlap (use async spans for those).
func (t *Tracer) Span(pid, tid int32, cat, name string, start, end sim.Time) {
	if t == nil {
		return
	}
	if end < start {
		end = start
	}
	t.events = append(t.events, event{
		name: name, cat: cat, ph: phComplete,
		pid: pid, tid: tid, ts: start, dur: end - start,
	})
}

// Instant records a point event.
func (t *Tracer) Instant(pid, tid int32, cat, name string, at sim.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{
		name: name, cat: cat, ph: phInstant, pid: pid, tid: tid, ts: at,
	})
}

// BeginAsync opens an overlapping span identified by (cat, id); pair with
// EndAsync using the same cat, name and id.
func (t *Tracer) BeginAsync(pid int32, cat, name string, id uint64, at sim.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{
		name: name, cat: cat, ph: phAsyncBegin, pid: pid, ts: at, id: id,
	})
}

// EndAsync closes the async span opened by BeginAsync.
func (t *Tracer) EndAsync(pid int32, cat, name string, id uint64, at sim.Time) {
	if t == nil {
		return
	}
	t.events = append(t.events, event{
		name: name, cat: cat, ph: phAsyncEnd, pid: pid, ts: at, id: id,
	})
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

// Event is the read-only view of one recorded trace event handed to Visit
// callbacks. Dur is meaningful for PhaseComplete events only; ID pairs
// PhaseAsyncBegin with its PhaseAsyncEnd.
type Event struct {
	Name  string
	Cat   string
	Phase byte
	Pid   int32
	Tid   int32
	Ts    sim.Time
	Dur   sim.Time
	ID    uint64
}

// Visit calls fn for every recorded event in recording order. It is
// nil-receiver safe (a disabled tracer visits nothing), so offline
// consumers need no enabled check.
func (t *Tracer) Visit(fn func(Event)) {
	if t == nil {
		return
	}
	for i := range t.events {
		e := &t.events[i]
		fn(Event{
			Name: e.name, Cat: e.cat, Phase: e.ph,
			Pid: e.pid, Tid: e.tid, Ts: e.ts, Dur: e.dur, ID: e.id,
		})
	}
}

// CountCategory reports how many events carry the given category (used by
// tests and the CLI summary).
func (t *Tracer) CountCategory(cat string) int {
	if t == nil {
		return 0
	}
	n := 0
	for i := range t.events {
		if t.events[i].cat == cat {
			n++
		}
	}
	return n
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
			pid, quote(t.procs[pid]))
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
			pid, tid, quote(t.threads[k]))
	}

	var buf []byte
	for i := range t.events {
		e := &t.events[i]
		sep()
		buf = buf[:0]
		buf = append(buf, `{"name":`...)
		buf = append(buf, quote(e.name)...)
		if e.cat != "" {
			buf = append(buf, `,"cat":`...)
			buf = append(buf, quote(e.cat)...)
		}
		buf = append(buf, `,"ph":"`...)
		buf = append(buf, e.ph)
		buf = append(buf, `","pid":`...)
		buf = strconv.AppendInt(buf, int64(e.pid), 10)
		if e.ph == phComplete || e.ph == phInstant {
			buf = append(buf, `,"tid":`...)
			buf = strconv.AppendInt(buf, int64(e.tid), 10)
		}
		buf = append(buf, `,"ts":`...)
		buf = appendMicros(buf, e.ts)
		switch e.ph {
		case phComplete:
			buf = append(buf, `,"dur":`...)
			buf = appendMicros(buf, e.dur)
		case phInstant:
			buf = append(buf, `,"s":"t"`...)
		case phAsyncBegin, phAsyncEnd:
			buf = append(buf, `,"id":`...)
			buf = strconv.AppendUint(buf, e.id, 10)
		}
		buf = append(buf, '}')
		bw.Write(buf)
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

// quote renders a JSON string literal for trace names (ASCII-safe escape).
func quote(s string) string { return strconv.Quote(s) }
