// Command caisbench measures the CAIS simulator end to end and layer by
// layer on four named workloads, and checks every simulated output it
// produces against committed golden digests.
//
//	caisbench                              # every workload, one child process each
//	caisbench -workload layer-hot -seed 7  # one workload
//	caisbench -trace 1                     # add the traced run and its per-layer table
//	caisbench -update                      # rewrite testdata/golden.json
//
// A run prints a readable report and, as its last line, one JSON object
// with the keys correct, attempted, failed and metrics. README.md names the
// workloads and metrics and explains the per-layer table.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// defaultSeed is the seed the goldens are recorded at (config.DGXH100's).
const defaultSeed = 0xCA15

func main() {
	// One process per workload, at most two CPUs: the sizes in workloads.go
	// and the bounds in BENCHMARK.json were calibrated on a 2-vCPU host.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	name := flag.String("workload", "all", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Uint64("seed", defaultSeed, "seed of the hardware jitter, the serving trace and the fault mix")
	seconds := flag.Float64("seconds", 20, "measurement time per workload, in seconds")
	traced := flag.Int("trace", 0, "1 adds a traced half to the run and reports per-layer metrics instead of end-to-end ones")
	profiles := flag.String("profiles", filepath.Join(".bench_build", "profiles"), "directory for the CPU profiles of traced runs")
	update := flag.Bool("update", false, "rewrite testdata/golden.json from one pass of every workload at the default seed")
	flag.Parse()

	if flag.NArg() > 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *update {
		os.Exit(runUpdate(filepath.Join("testdata", "golden.json")))
	}
	if *name == "all" {
		os.Exit(runAll(*seed, *seconds, *traced, *profiles))
	}
	w, ok := workloadNamed(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "caisbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	os.Exit(runOne(w, *seed, *seconds, *traced == 1, *profiles))
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne sets up one workload, measures it and prints its report and
// result line. It returns the process exit code.
func runOne(w workload, seed uint64, seconds float64, traced bool, profiles string) int {
	r, err := newRunner(w, seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caisbench: %s: set-up: %v\n", w.name, err)
		return 1
	}
	fmt.Printf("== %s (seed %#x)\n", w.name, seed)
	r.warmUp()

	res := result{Metrics: map[string]metric{}}
	var metrics []measured
	if traced {
		// The untraced half is the baseline for trace_overhead_pct.
		plain := r.passes(seconds/2, 2, nil, false)
		metrics, err = r.tracedRun(seconds/2, plain, profiles)
		if err != nil {
			fmt.Fprintf(os.Stderr, "caisbench: %s: traced run: %v\n", w.name, err)
			return 1
		}
	} else {
		passes := r.passes(seconds, 3, nil, true)
		metrics = endToEndMetrics(passes, r.setups)
		printPasses(passes)
	}
	for _, m := range metrics {
		res.Metrics[m.name] = metric{m.value, m.unit}
		fmt.Printf("   %-26s %14.6g %s\n", m.name, m.value, m.unit)
	}
	r.chk.report(seed)

	res.Attempted, res.Failed, res.Correct = r.chk.attempted, r.chk.failed, r.chk.failed == 0
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caisbench: %s: encoding the result: %v\n", w.name, err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload in a child process of its own, so that each
// workload's peak RSS, heap and GC state are its own, then prints every
// metric as metric@workload and a combined result line.
func runAll(seed uint64, seconds float64, traced int, profiles string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "caisbench: locating the executable: %v\n", err)
		return 1
	}
	all := result{Correct: true, Metrics: map[string]metric{}}
	var summary strings.Builder
	for _, w := range workloads {
		cmd := exec.Command(exe, "-workload", w.name, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(traced), "-profiles", profiles)
		var stdout bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
		runErr := cmd.Run()

		out := strings.TrimRight(stdout.String(), "\n")
		report, last := "", out
		if i := strings.LastIndexByte(out, '\n'); i >= 0 {
			report, last = out[:i+1], out[i+1:]
		}
		fmt.Print(report)
		var r result
		if err := json.Unmarshal([]byte(last), &r); err != nil || runErr != nil {
			fmt.Fprintf(os.Stderr, "caisbench: %s: run failed (%v) or printed no result\n", w.name, runErr)
			all.Correct = false
			continue
		}
		all.Attempted += r.Attempted
		all.Failed += r.Failed
		all.Correct = all.Correct && r.Correct
		for _, d := range metricDecls(traced == 1) {
			if m, ok := r.Metrics[d.name]; ok {
				all.Metrics[d.name+"@"+w.name] = m
				fmt.Fprintf(&summary, "%-36s %14.6g %s\n", d.name+"@"+w.name, m.Value, m.Unit)
			}
		}
	}
	fmt.Printf("== summary\n%sfail_ratio %d/%d\n", summary.String(), all.Failed, all.Attempted)
	line, err := json.Marshal(all)
	if err != nil {
		fmt.Fprintf(os.Stderr, "caisbench: encoding the result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !all.Correct {
		return 1
	}
	return 0
}

// runUpdate runs one pass of every workload at the default seed and writes
// the digests of their ops to path, which must already exist: the binary
// embeds the goldens from its source directory, so a path relative to any
// other directory would write a file that nothing reads.
func runUpdate(path string) int {
	if _, err := os.Stat(path); err != nil {
		fmt.Fprintf(os.Stderr, "caisbench: -update rewrites %s and must run in cmd/caisbench: %v\n", path, err)
		return 2
	}
	g := goldenFile{Seed: defaultSeed, Ops: map[string]string{}}
	for _, w := range workloads {
		pass, err := w.setup(defaultSeed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "caisbench: %s: set-up: %v\n", w.name, err)
			return 1
		}
		for _, o := range pass(nil) {
			if o.err != nil {
				fmt.Fprintf(os.Stderr, "caisbench: %s: %v\n", o.name, o.err)
				return 1
			}
			g.Ops[o.name] = o.digest
		}
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err == nil {
		err = os.WriteFile(path, append(data, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "caisbench: writing %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("wrote %d op digests to %s\n", len(g.Ops), path)
	return 0
}
