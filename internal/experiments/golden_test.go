package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"cais/internal/attrib"
	"cais/internal/config"
	"cais/internal/faults"
	"cais/internal/memo"
	"cais/internal/metrics"
	"cais/internal/strategy"
	"cais/internal/sweep"
	"cais/internal/trace"
)

// The determinism oracle. The simulated numbers behind every table are
// committed under testdata/golden, and every configuration that must not
// move an output byte is compared against them, never against a reference
// simulated in the same process:
//
//   - quick.txt is the verbatim stdout of `caissim -experiment all -quick`.
//   - points.txt has one "key elapsed_ps digest" line per labeled sweep
//     point (its attribution JSON), per strategy × {prefill, training,
//     prefill on one GPU} at one layer of the quick model, and per traced
//     CAIS run, plus the memo run's lookup and simulated counts. A digest is 16 hex digits of
//     SHA-256, the format of caisbench's goldens. Telemetry enters a digest
//     without the host allocator gauges (pool.*, arena.*): they move when a
//     pool is added or deleted, while no simulated number does.
//
// TestGolden checks the memo-on and attribution-on runs and every point;
// the tests below it, TestResilienceDeterministic and TestServingDeterminism
// check the other configurations against quick.txt, and the root package's
// determinism_test.go and parallel_test.go check the public API against
// both files.
//
// To regenerate after an intended change, delete testdata/golden and run
// `go test -run Golden ./internal/experiments` twice: the first run writes
// the missing files and fails, asking for a commit; the second checks them.
// The goldens are recorded on linux/amd64, the CI platform. Go may fuse
// floating-point multiply-adds on other architectures, which can move the
// last digit of a rendered number.

// quickRun is one rendering of every experiment.
type quickRun struct {
	outs map[string]string // by experiment ID
	all  string            // as `caissim -experiment all` prints it
}

func renderAll(c Config) (quickRun, error) {
	r := quickRun{outs: map[string]string{}}
	var b strings.Builder
	for _, id := range Names() {
		out, err := Run(id, c)
		if err != nil {
			return r, fmt.Errorf("%s: %w", id, err)
		}
		r.outs[id] = out
		b.WriteString(out + "\n\n")
	}
	r.all = b.String()
	return r, nil
}

// memoOn is the memo-on run at GOMAXPROCS workers, made once per test
// binary. TestGolden checks it against quick.txt, and the property tests
// read their points from its cache instead of simulating them cold.
var memoOn struct {
	once            sync.Once
	run             quickRun
	cache           *memo.Cache
	lookups, misses int64
	err             error
}

func memoRun(t *testing.T) quickRun {
	t.Helper()
	memoOn.once.Do(func() {
		c := Quick()
		c.Memo = memo.NewCache()
		memoOn.run, memoOn.err = renderAll(c)
		memoOn.cache, memoOn.lookups, memoOn.misses = c.Memo, c.Memo.Lookups(), c.Memo.Misses()
	})
	if memoOn.err != nil {
		t.Fatal(memoOn.err)
	}
	return memoOn.run
}

// cached returns the quick configuration over the memo-on run's cache.
func cached(t *testing.T) Config {
	t.Helper()
	memoRun(t)
	c := Quick()
	c.Memo = memoOn.cache
	return c
}

// checkSection fails unless out, experiment id's output under config, is
// that experiment's section of quick.txt, where every section ends in a
// blank line.
func checkSection(t *testing.T, config, id, out string) {
	t.Helper()
	ref := memoRun(t)
	if !strings.Contains("\n\n"+golden(t, "quick.txt", ref.all), "\n\n"+out+"\n\n") {
		t.Errorf("%s: %s is not its section of testdata/golden/quick.txt; against the memo-on run's (see TestGolden):\n%s",
			config, id, diffLines(ref.outs[id], out))
	}
}

// checkQuick renders every experiment under c and compares the output
// with quick.txt.
func checkQuick(t *testing.T, config string, c Config) {
	t.Helper()
	r, err := renderAll(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := golden(t, "quick.txt", memoRun(t).all); r.all != want {
		t.Errorf("%s: output differs from testdata/golden/quick.txt\n%s", config, diffLines(want, r.all))
	}
}

// TestGolden checks the memo-on run against quick.txt and every computed
// point against points.txt. It runs in parallel with the memo-off run of
// TestMemoOutputByteIdentical.
func TestGolden(t *testing.T) {
	t.Parallel()
	ref := memoRun(t)
	if quick := golden(t, "quick.txt", ref.all); ref.all != quick {
		t.Errorf("memo on, GOMAXPROCS workers: output differs from testdata/golden/quick.txt\n%s", diffLines(quick, ref.all))
	}
	points := map[string]string{
		"memo": fmt.Sprintf("lookups=%d simulated=%d", memoOn.lookups, memoOn.misses),
	}

	// Attribution changes no rendered byte; each labeled point's report is
	// a points.txt entry.
	c := Quick()
	c.Memo = memo.NewCache()
	c.Attrib = attrib.NewAggregator()
	attributed, err := renderAll(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range Names() {
		if out, want := attributed.outs[id], ref.outs[id]; out != want {
			t.Errorf("attribution on: %s output differs from quick.txt\n%s", id, diffLines(want, out))
		}
	}
	attribPoints(t, c.Attrib, points)
	strategyPoints(t, points)
	tracedPoints(t, points)

	want := parsePoints(t, golden(t, "points.txt", formatPoints(points)))
	var moved []string
	for _, k := range sortedKeys(want, points) {
		w, inWant := want[k]
		g, inGot := points[k]
		switch {
		case !inWant:
			moved = append(moved, fmt.Sprintf("%s: %s, not in points.txt", k, g))
		case !inGot:
			moved = append(moved, fmt.Sprintf("%s: not computed, want %s", k, w))
		case g != w:
			moved = append(moved, fmt.Sprintf("%s: %s, want %s", k, g, w))
		}
	}
	if len(moved) > 0 {
		t.Errorf("%d of %d points.txt entries moved:\n  %s", len(moved), len(want), strings.Join(moved, "\n  "))
	}
}

// TestMemoOutputByteIdentical: a cache hit is indistinguishable from a cold
// simulation in every output byte. The memo-off run at one worker renders
// quick.txt, as the memo-on runs do: at GOMAXPROCS workers (TestGolden)
// and, where that is not 2, at 2 workers with the same memo counts.
func TestMemoOutputByteIdentical(t *testing.T) {
	t.Parallel()
	c := Quick()
	c.Workers = 1
	checkQuick(t, "memo off, 1 worker", c)
	if runtime.GOMAXPROCS(0) != 2 {
		c := Quick()
		c.Workers = 2
		c.Memo = memo.NewCache()
		checkQuick(t, "memo on, 2 workers", c)
		if c.Memo.Lookups() != memoOn.lookups || c.Memo.Misses() != memoOn.misses {
			t.Errorf("memo on, 2 workers: %d lookups, %d simulated; %d and %d at GOMAXPROCS",
				c.Memo.Lookups(), c.Memo.Misses(), memoOn.lookups, memoOn.misses)
		}
	}
}

// TestMemoStrictlyFewerRuns: duplicate points across experiments simulate
// once, so the memo-on run simulates strictly fewer points than it looks
// up (points.txt pins both counts), and an all-hits replay over its cache
// simulates nothing and still renders quick.txt.
func TestMemoStrictlyFewerRuns(t *testing.T) {
	c := cached(t)
	if memoOn.misses >= memoOn.lookups {
		t.Errorf("memo on: %d points simulated, not strictly fewer than %d lookups", memoOn.misses, memoOn.lookups)
	}
	misses := c.Memo.Misses()
	checkQuick(t, "all-hits replay", c)
	if n := c.Memo.Misses() - misses; n != 0 {
		t.Errorf("all-hits replay simulated %d points, want 0", n)
	}
}

// TestTileArenaIsolationAcrossPoints pins the tile-arena isolation
// invariant: kernel-construction state (per-machine tile/access arenas,
// the builder's interned tile-set cache, pooled latches and dependency
// records) never leaks between sweep points. table2 renders last in
// quick.txt, after every other experiment, with and without a memo
// cache; rendered alone at one worker it must give the same bytes.
func TestTileArenaIsolationAcrossPoints(t *testing.T) {
	c := Quick()
	c.Workers = 1
	out, err := Run("table2", c)
	if err != nil {
		t.Fatal(err)
	}
	checkSection(t, "memo off, 1 worker", "table2", out)
}

// attribPoints enters each labeled point the aggregator collected: its
// elapsed ticks and a digest of its attribution JSON.
func attribPoints(t *testing.T, a *attrib.Aggregator, points map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	for _, raw := range doc.Points {
		var p struct {
			Label   string `json:"label"`
			Elapsed int64  `json:"elapsed_ps"`
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		h.Write(raw)
		points[p.Label] = fmt.Sprintf("%d %s", p.Elapsed, sum(h))
	}
}

// strategyPoints enters every strategy for one prefill and one training
// layer of the quick model, and for one prefill layer on a single GPU,
// where every collective degenerates to a local copy, with attribution on,
// fanned out at GOMAXPROCS workers.
func strategyPoints(t *testing.T, points map[string]string) {
	t.Helper()
	hw := Quick().HW
	one := hw
	one.NumGPUs = 1
	specs := append(strategy.All(), strategy.Extensions()...)
	runs := []struct {
		key      string
		hw       config.Hardware
		training bool
	}{{"prefill", hw, false}, {"training", hw, true}, {"gpus1", one, false}}
	vals, err := sweep.Map(len(specs)*len(runs), 0, func(i int) (string, error) {
		run := runs[i%len(runs)]
		r, err := strategy.RunLayersOpts(run.hw, specs[i/len(runs)], quickModel(), run.training, 1, strategy.Options{Attrib: true})
		if err != nil {
			return "", err
		}
		return digest(r, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vals {
		points["strategy/"+runs[i%len(runs)].key+"/"+specs[i/len(runs)].Name] = v
	}
}

// tracedPoints enters two traced CAIS layers of the quick model at a
// non-default seed, for inference, training and inference under a fault
// mix. The root package's determinism tests check the public API against
// these entries, an empty fault schedule against traced/inference.
func tracedPoints(t *testing.T, points map[string]string) {
	t.Helper()
	mix, err := faults.Parse([]byte(`{
		"name": "determinism-mix",
		"faults": [
			{"kind": "link-degrade", "at_us": 5, "for_us": 100, "factor": 0.5},
			{"kind": "plane-down", "at_us": 20, "plane": 3},
			{"kind": "straggler", "at_us": 0, "gpu": 1, "factor": 1.5}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []struct {
		key      string
		training bool
		sched    *faults.Schedule
	}{
		{"traced/inference", false, nil},
		{"traced/training", true, nil},
		{"traced/faults", false, mix},
	} {
		points[p.key] = traced(t, p.training, p.sched)
	}
}

// traced digests two traced CAIS layers of the quick model at a
// non-default seed.
func traced(t *testing.T, training bool, sched *faults.Schedule) string {
	t.Helper()
	hw := Quick().HW
	hw.Seed = 0xD37E12
	tr := trace.New()
	r, err := strategy.RunLayersOpts(hw, strategy.CAIS(), quickModel(), training, 2,
		strategy.Options{Tracer: tr, Faults: sched, Attrib: true})
	if err != nil {
		t.Fatal(err)
	}
	d, err := digest(r, tr)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// digest hashes everything observable about one run: the switch summary,
// link utilization, merge-table high water, the attribution report in both
// renderings, the simulated telemetry and, when traced, the event trace.
// The root package's determinism tests hash the public API's runs the same
// way.
func digest(r strategy.Result, tr *trace.Tracer) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%#v %v %d\n%s", r.Stats, r.AvgUtil, r.MergeHWM, r.Attrib.Render())
	writes := []func(io.Writer) error{simulated(r.Telemetry).WriteJSON, r.Attrib.WriteJSON}
	if tr != nil {
		writes = append(writes, tr.WriteJSON)
	}
	for _, write := range writes {
		if err := write(h); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%d %s", r.Elapsed, sum(h)), nil
}

// simulated drops the host allocator gauges from a telemetry snapshot.
func simulated(s metrics.Snapshot) metrics.Snapshot {
	var out metrics.Snapshot
	for _, m := range s.Metrics {
		if !strings.HasPrefix(m.Name, "pool.") && !strings.HasPrefix(m.Name, "arena.") {
			out.Metrics = append(out.Metrics, m)
		}
	}
	return out
}

// sum renders a digest as 16 hex digits.
func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// golden reads testdata/golden/name. A missing file is written from got,
// and the test fails asking for it to be committed.
func golden(t *testing.T, name, got string) string {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	want, err := os.ReadFile(path)
	if err == nil {
		return string(want)
	}
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Errorf("wrote %s from this run: review and commit it, then run the test again", path)
	return got
}

func formatPoints(points map[string]string) string {
	var b strings.Builder
	b.WriteString("# key elapsed_ps digest (see golden_test.go)\n")
	for _, k := range sortedKeys(points) {
		b.WriteString(k + " " + points[k] + "\n")
	}
	return b.String()
}

// parsePoints reads points.txt. Labels may hold spaces, so the value is
// the last two fields and the key is everything before them.
func parsePoints(t *testing.T, s string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(s, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		j := -1
		if i > 0 {
			j = strings.LastIndexByte(line[:i], ' ')
		}
		if j <= 0 {
			t.Fatalf("points.txt: malformed line %q", line)
		}
		out[line[:j]] = line[j+1:]
	}
	return out
}

func sortedKeys(ms ...map[string]string) []string {
	seen := map[string]bool{}
	var keys []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Strings(keys)
	return keys
}

// diffLines lists the lines where got differs from want, at most 40.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	n := 0
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl == gl {
			continue
		}
		if n++; n > 40 {
			b.WriteString("  ...\n")
			break
		}
		fmt.Fprintf(&b, "  line %d:\n    - %s\n    + %s\n", i+1, wl, gl)
	}
	return b.String()
}
