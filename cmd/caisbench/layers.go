package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"cais/internal/metrics"
)

// hostLayers are the module's packages whose share of host CPU the traced
// run reports as host.<package>_pct.
var hostLayers = []string{"sim", "machine", "nvswitch", "noc", "gpu", "model", "kernel",
	"strategy", "trace", "attrib", "memo", "serve", "pool"}

// cpuBuckets are every bucket a profile sample can land in (bucketOf).
var cpuBuckets = append(slices.Clone(hostLayers), "gc", "malloc", "other")

// layerDecls are the per-layer metrics of a traced run. README.md says
// which end-to-end metric each should move, on which workload.
var layerDecls = append(hostDecls(), []decl{
	{"sim.events", "count", "lower"},
	{"sim.ns_per_event", "ns", "lower"},
	{"machine.tiles_published", "count", "lower"},
	{"machine.kernels", "count", "lower"},
	{"nvswitch.merge_ops", "count", "higher"},
	{"nvswitch.evictions", "count", "lower"},
	{"nvswitch.full_merge_ratio", "ratio", "higher"},
	{"noc.packets", "count", "lower"},
	{"noc.wire_mb", "MB", "lower"},
	{"gpu.tbs", "count", "lower"},
	{"gpu.requests", "count", "lower"},
	{"strategy.point_ms_p50", "ms", "lower"},
	{"strategy.point_ms_max", "ms", "lower"},
	{"pool.reuse_ratio", "ratio", "higher"},
	{"trace.events", "count", "lower"},
	{"attrib.build_ms", "ms", "lower"},
	{"memo.lookups", "count", "lower"},
	{"memo.hit_ratio", "ratio", "higher"},
	{"memo.hit_us", "us", "lower"},
	{"serve.iterations", "count", "lower"},
	{"serve.decode_batch", "count", "higher"},
	{"serve.sched_ms", "ms", "lower"},
	{"serve.requests_per_s", "1/s", "higher"},
	{"sweep.busy_ratio", "ratio", "higher"},
	{"trace_overhead_pct", "%", "lower"},
}...)

func hostDecls() []decl {
	var out []decl
	for _, b := range cpuBuckets {
		out = append(out, decl{"host." + b + "_pct", "%", "lower"})
	}
	return out
}

// maxOtherPct is the largest share of host CPU the fold may leave
// unattributed before the traced run counts as failed.
const maxOtherPct = 5

// recorder collects the traced run's per-layer counts and host times,
// summed over its passes. Sweep workers call it concurrently. A nil
// recorder, the untraced run's, records nothing.
type recorder struct {
	mu            sync.Mutex
	tele          map[string]float64 // telemetry summed over points; plane and pool families also summed by suffix
	pointMs       []float64          // host time of every simulated point
	traceEvents   float64
	attribBuild   time.Duration
	memoLookups   float64
	memoHits      float64
	hitTime       time.Duration // host time of the timed memo hits (serving's cost lookups)
	serveIters    float64
	serveRequests float64
	decodes       float64 // decode iterations
	decoding      float64 // requests decoded, summed over decode iterations
	schedTime     time.Duration
	sweepBusy     time.Duration // summed host time of the ops run through sweep.Map
	sweepCapacity time.Duration // workers x sweep wall time
}

func newRecorder() *recorder { return &recorder{tele: map[string]float64{}} }

func (r *recorder) point(d time.Duration, s metrics.Snapshot) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pointMs = append(r.pointMs, ms(d))
	r.addTelemetry(s)
}

func (r *recorder) addTelemetry(s metrics.Snapshot) {
	for _, m := range s.Metrics {
		r.tele[m.Name] += m.Value
		// nvswitch.plane3.evictions -> nvswitch.evictions, pool.gpu.gets -> pool.gets
		if family, _, ok := strings.Cut(m.Name, "."); ok && (strings.HasPrefix(m.Name, "nvswitch.plane") || family == "pool") {
			r.tele[family+m.Name[strings.LastIndexByte(m.Name, '.'):]] += m.Value
		}
	}
}

func (r *recorder) attrib(build time.Duration, traceEvents int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attribBuild += build
	r.traceEvents += float64(traceEvents)
}

func (r *recorder) memo(lookups, hits int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.memoLookups += float64(lookups)
	r.memoHits += float64(hits)
}

// serve records one serving run: run is serve.Run's host time, t the
// cost-model calls it made and lookups the cost model's count of them.
func (r *recorder) serve(iters, requests int, run time.Duration, t *timedCost, lookups int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.serveIters += float64(iters)
	r.serveRequests += float64(requests)
	r.decodes += float64(t.decodes)
	r.decoding += float64(t.decoding)
	r.schedTime += run - t.cost
	r.memoLookups += float64(lookups)
	r.memoHits += float64(t.hits)
	r.hitTime += t.hit
}

func (r *recorder) sweep(workers int, wall, busy time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sweepBusy += busy
	r.sweepCapacity += time.Duration(workers) * wall
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tracedRun runs passes for about seconds under the CPU profiler with a
// recorder attached, folds the profile by package and returns the
// per-layer metrics. plain is the untraced half of the run.
func (r *runner) tracedRun(seconds float64, plain []passStats, profiles string) ([]measured, error) {
	if err := os.MkdirAll(profiles, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(profiles, r.w.name+".cpu.pb.gz")
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	rec := newRecorder()
	traced := r.passes(seconds, 2, rec, false)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	traces, err := exec.Command("go", "tool", "pprof", "-traces", "-unit=ns", path).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces %s: %w", path, err)
	}
	split, err := foldTraces(bytes.NewReader(traces))
	if err != nil {
		return nil, err
	}
	v := layerValues(rec, traced, plain, split)
	if v["host.other_pct"] > maxOtherPct {
		r.chk.fail("host.other_pct", fmt.Errorf("%.1f%% of host CPU is outside every layer, want <= %d%%", v["host.other_pct"], maxOtherPct))
	}
	fmt.Printf("   %d untraced and %d traced passes; CPU profile %s\n", len(plain), len(traced), path)
	out := make([]measured, len(layerDecls))
	for i, d := range layerDecls {
		out[i] = measured{d, v[d.name]}
	}
	return out, nil
}

// layerValues computes every per-layer metric, per pass, from the traced
// passes, the untraced ones and the profile's CPU time by bucket.
func layerValues(rec *recorder, traced, plain []passStats, split map[string]int64) map[string]float64 {
	n := float64(len(traced))
	var total, cpu float64
	for _, b := range cpuBuckets {
		total += float64(split[b])
	}
	for _, p := range traced {
		cpu += p.cpu
	}
	v := map[string]float64{}
	for _, b := range cpuBuckets {
		v["host."+b+"_pct"] = 100 * ratio(float64(split[b]), total)
	}
	t := func(name string) float64 { return rec.tele[name] / n }
	events := t("sim.steps")
	v["sim.events"] = events
	// The event engine's own CPU time per event.
	v["sim.ns_per_event"] = ratio(v["host.sim_pct"]/100*cpu/n*1e9, events)
	v["machine.tiles_published"] = t("machine.published_tiles")
	v["machine.kernels"] = t("machine.kernels_launched")
	v["nvswitch.merge_ops"] = t("nvswitch.merged_loads") + t("nvswitch.merged_reds")
	v["nvswitch.evictions"] = t("nvswitch.evictions")
	if sessions := t("nvswitch.session_lifetime_count"); sessions > 0 {
		v["nvswitch.full_merge_ratio"] = 1 - t("nvswitch.partial_flushes")/sessions
	}
	v["noc.packets"] = t("pool.packets.gets") // every packet on a link comes from the packet pool
	v["noc.wire_mb"] = (t("noc.up.wire_bytes") + t("noc.down.wire_bytes")) / mb
	v["gpu.tbs"] = t("gpu.tbs_run")
	v["gpu.requests"] = t("gpu.requests_sent")
	if len(rec.pointMs) > 0 {
		v["strategy.point_ms_p50"] = median(rec.pointMs)
		v["strategy.point_ms_max"] = slices.Max(rec.pointMs)
	}
	if gets := t("pool.gets"); gets > 0 {
		v["pool.reuse_ratio"] = 1 - t("pool.allocs")/gets
	}
	v["trace.events"] = rec.traceEvents / n
	v["attrib.build_ms"] = ms(rec.attribBuild) / n
	v["memo.lookups"] = rec.memoLookups / n
	v["memo.hit_ratio"] = ratio(rec.memoHits, rec.memoLookups)
	v["memo.hit_us"] = ratio(ms(rec.hitTime)*1e3, rec.memoHits)
	v["serve.iterations"] = rec.serveIters / n
	v["serve.decode_batch"] = ratio(rec.decoding, rec.decodes)
	v["serve.sched_ms"] = ms(rec.schedTime) / n
	plainWall := median(column(plain, func(p passStats) float64 { return p.wall }))
	v["serve.requests_per_s"] = ratio(rec.serveRequests/n, plainWall)
	v["sweep.busy_ratio"] = ratio(float64(rec.sweepBusy), float64(rec.sweepCapacity))
	tracedWall := median(column(traced, func(p passStats) float64 { return p.wall }))
	v["trace_overhead_pct"] = 100 * (ratio(tracedWall, plainWall) - 1)
	return v
}

// foldTraces reads `go tool pprof -traces -unit=ns` output and returns the
// CPU nanoseconds of each bucket (bucketOf).
//
// The fold walks whole stacks rather than folding `pprof -top`'s flat
// time by package: runtime leaf functions such as map lookups, memmove
// and stack growth are then charged to the module package that called
// them, not left unattributed.
func foldTraces(r io.Reader) (map[string]int64, error) {
	split := map[string]int64{}
	var (
		stack    []string
		value    int64
		inSample bool
		started  bool
	)
	flush := func() {
		if inSample {
			split[bucketOf(stack)] += value
		}
		stack, inSample = stack[:0], false
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "-----------+"):
			flush()
			started = true
		case !started || line == "":
			// The header before the first sample.
		case !inSample && strings.Contains(line, ":  "):
			// A profile label ("key:  value") printed ahead of a sample.
		case !inSample:
			v, frame, _ := strings.Cut(line, " ")
			n, err := strconv.ParseInt(strings.TrimSuffix(v, "ns"), 10, 64)
			if err != nil || !strings.HasSuffix(v, "ns") {
				return nil, fmt.Errorf("pprof -traces: sample line %q has no ns value", line)
			}
			value, inSample = n, true
			stack = append(stack, strings.TrimSuffix(strings.TrimSpace(frame), " (inline)"))
		default:
			stack = append(stack, strings.TrimSuffix(line, " (inline)"))
		}
	}
	flush()
	return split, sc.Err()
}

// bucketOf charges one sample's stack, leaf first: garbage collection if
// the collector's workers or an allocation assist ran it; allocation if it
// is under mallocgc; else the module layer nearest the leaf; else other.
func bucketOf(stack []string) string {
	for _, f := range stack {
		switch f {
		case "runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.bgsweep", "runtime.bgscavenge":
			return "gc"
		}
	}
	if slices.Contains(stack, "runtime.mallocgc") {
		return "malloc"
	}
	for _, f := range stack {
		if layer, ok := strings.CutPrefix(pkgOf(f), "cais/internal/"); ok && slices.Contains(hostLayers, layer) {
			return layer
		}
	}
	return "other"
}

// pkgOf returns the import path of a profiled function's package:
// cais/internal/sim for "cais/internal/sim.(*Engine).Run".
func pkgOf(fn string) string {
	if i := strings.IndexAny(fn, "[("); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}
