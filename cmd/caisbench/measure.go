package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// decl declares one metric: its name, unit and which direction is better.
// BENCHMARK.json lists the same metrics (TestBenchmarkJSONMatches).
type decl struct{ name, unit, better string }

var endToEndDecls = []decl{
	{"wall_s", "s", "lower"},       // host seconds per pass at reference speed, median
	{"cpu_s", "s", "lower"},        // user+system CPU seconds per pass at reference speed, median
	{"alloc_mb", "MB", "lower"},    // bytes allocated per pass, median
	{"peak_rss_mb", "MB", "lower"}, // the process's peak resident set
	{"setup_s", "s", "lower"},      // seconds per set-up at reference speed, median
}

func metricDecls(traced bool) []decl {
	if traced {
		return layerDecls
	}
	return endToEndDecls
}

// measured is a metric with its value.
type measured struct {
	decl
	value float64
}

const mb = 1 << 20

// setupReps is how many set-ups a run times before each pass. Spreading
// them over the whole run, rather than timing them back to back at start,
// exposes them to the same host conditions as the passes: a set-up takes
// tens of microseconds, and one noisy moment would otherwise decide its
// median.
const setupReps = 3

// runner measures one workload.
type runner struct {
	w      workload
	seed   uint64
	pass   passFunc
	chk    *checker
	ref    refKernel
	setups []timing
}

// timing is one measured time and the reference kernel's time next to it.
type timing struct{ secs, ref float64 }

// atRefSpeed converts t to seconds at the reference host speed.
func (t timing) atRefSpeed() float64 { return t.secs * refNominal / t.ref }

func newRunner(w workload, seed uint64) (*runner, error) {
	g, err := parseGolden()
	if err != nil {
		return nil, err
	}
	pass, err := w.setup(seed)
	if err != nil {
		return nil, err
	}
	return &runner{w: w, seed: seed, pass: pass, chk: newChecker(seed, g), ref: newRefKernel()}, nil
}

// timeSetups times setupReps set-ups: loading the goldens and building the
// workload's inputs. Their results are dropped; set-up has no side effects.
func (r *runner) timeSetups(ref float64) {
	for i := 0; i < setupReps; i++ {
		start := time.Now()
		_, err := parseGolden()
		if err == nil {
			_, err = r.w.setup(r.seed)
		}
		if err != nil {
			r.chk.fail(r.w.name+"/setup", err)
			return
		}
		r.setups = append(r.setups, timing{time.Since(start).Seconds(), ref})
	}
}

// warmUp runs one untimed pass, checked like the others. It fills the
// caches a run keeps across passes (serving-long's memo cache) and lets the
// heap reach its working size.
func (r *runner) warmUp() { r.chk.check(r.pass(nil)) }

// passStats is one timed pass: host times, allocation, and the reference
// kernel's mean time just before and just after it (0 when not taken).
type passStats struct {
	wall, cpu, allocMB, ref float64
}

// passes repeats the pass back to back (a closed loop) for about seconds,
// and at least minPasses times, timing each pass and checking its ops. It
// stops before a pass that would end past the deadline. With withRef, the
// reference kernel runs between passes; traced runs leave it out of their
// profiles.
func (r *runner) passes(seconds float64, minPasses int, rec *recorder, withRef bool) []passStats {
	reference := func() float64 {
		if !withRef {
			return 0
		}
		runtime.GC() // no collection left over from the pass competes with the kernel
		return r.ref.run()
	}
	var out []passStats
	start := time.Now()
	ref := reference()
	for {
		r.timeSetups(ref)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		alloc0, cpu0, t0 := ms.TotalAlloc, cpuSeconds(), time.Now()
		ops := r.pass(rec)
		p := passStats{wall: time.Since(t0).Seconds(), cpu: cpuSeconds() - cpu0}
		runtime.ReadMemStats(&ms)
		p.allocMB = float64(ms.TotalAlloc-alloc0) / mb
		r.chk.check(ops)
		next := reference()
		p.ref, ref = (ref+next)/2, next
		out = append(out, p)
		if len(out) >= minPasses && time.Since(start).Seconds()+p.wall > seconds {
			return out
		}
	}
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage(RUSAGE_SELF): %v", err)) // fails only on a bad pointer
	}
	return ru
}

// cpuSeconds is the process's user plus system CPU time, every thread
// (GC workers included).
func cpuSeconds() float64 {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// endToEndMetrics summarizes an untraced run.
func endToEndMetrics(passes []passStats, setups []timing) []measured {
	setupS := make([]float64, len(setups))
	for i, t := range setups {
		setupS[i] = t.atRefSpeed()
	}
	v := map[string]float64{
		"wall_s":      median(column(passes, func(p passStats) float64 { return timing{p.wall, p.ref}.atRefSpeed() })),
		"cpu_s":       median(column(passes, func(p passStats) float64 { return timing{p.cpu, p.ref}.atRefSpeed() })),
		"alloc_mb":    median(column(passes, func(p passStats) float64 { return p.allocMB })),
		"peak_rss_mb": float64(rusage().Maxrss) * 1024 / mb, // Maxrss is in KiB on Linux
		"setup_s":     median(setupS),
	}
	out := make([]measured, len(endToEndDecls))
	for i, d := range endToEndDecls {
		out[i] = measured{d, v[d.name]}
	}
	return out
}

// printPasses prints the host times as measured, before the conversion to
// reference speed.
func printPasses(passes []passStats) {
	q1, q2, q3 := quartiles(column(passes, func(p passStats) float64 { return p.wall }))
	fmt.Printf("   %d timed passes; host wall per pass %.4g s (quartiles %.4g .. %.4g), CPU %.4g s; reference kernel %.4g s\n",
		len(passes), q2, q1, q3, median(column(passes, func(p passStats) float64 { return p.cpu })),
		median(column(passes, func(p passStats) float64 { return p.ref })))
}

func column(passes []passStats, f func(passStats) float64) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = f(p)
	}
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns the three cut points of xs the way Python's
// statistics.quantiles(xs, n=4) does (its default, exclusive method), the
// definition BENCHMARK.json's bounds are checked against.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	switch len(s) {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := len(s) + 1
	cut := func(i int) float64 {
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}
