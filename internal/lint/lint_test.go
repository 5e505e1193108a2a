package lint

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe matches expectation markers in fixture files: "lintwant:<check>"
// expects a diagnostic of that check on the marker's own line;
// "lintwant+1:<check>" expects it on the next line (for diagnostics that
// land on directive comments, which cannot carry a trailing marker).
var wantRe = regexp.MustCompile(`lintwant(\+1)?:([a-z-]+)`)

// collectWants scans every fixture file for markers and returns a multiset
// keyed by "relpath:line:check".
func collectWants(t *testing.T, root string) map[string]int {
	t.Helper()
	want := map[string]int{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
				ln := i + 1
				if m[1] == "+1" {
					ln++
				}
				want[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), ln, m[2])]++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFixtures runs the analyzer over the fixture module and checks the
// reported diagnostics against the lintwant markers, both ways: every
// marker must be hit and nothing unmarked may be reported.
func TestFixtures(t *testing.T) {
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Dir: root})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(diags) == 0 {
		t.Fatal("fixture tree produced no diagnostics; the fixtures exist to fail")
	}
	got := map[string]int{}
	for _, d := range diags {
		rel, err := filepath.Rel(root, d.File)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("%s:%d:%s", filepath.ToSlash(rel), d.Line, d.Check)]++
	}
	want := collectWants(t, root)

	keys := map[string]bool{}
	for k := range got {
		keys[k] = true
	}
	for k := range want {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		if got[k] != want[k] {
			t.Errorf("%s: got %d diagnostic(s), marker expects %d", k, got[k], want[k])
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("reported: %s", d)
		}
	}
}

// TestTransitiveWitnessChains pins that wallclock and rand report calls
// reaching their source through module functions, naming the whole chain.
func TestTransitiveWitnessChains(t *testing.T) {
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Dir: root, Patterns: []string{"./internal/sim"}})
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for _, d := range diags {
		msgs = append(msgs, "["+d.Check+"] "+d.Msg)
	}
	all := strings.Join(msgs, "\n")
	for _, want := range []string{
		"[wallclock] call to util.StampTwice transitively reads the wall clock (util.StampTwice -> util.Stamp -> time.Now)",
		"[rand] call to util.Jitter transitively uses the unseeded global math/rand source (util.Jitter -> rand.Float64)",
	} {
		if !strings.Contains(all, want) {
			t.Errorf("no diagnostic containing %q; got:\n%s", want, all)
		}
	}
}

// TestFixturesSorted checks Run's ordering contract: by file, then line,
// then column.
func TestFixturesSorted(t *testing.T) {
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Run(Config{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.File > b.File || (a.File == b.File && (a.Line > b.Line || (a.Line == b.Line && a.Col > b.Col))) {
			t.Fatalf("diagnostics out of order: %s before %s", a, b)
		}
	}
}

// TestExpandPatterns exercises the pattern resolver against the fixture
// module layout.
func TestExpandPatterns(t *testing.T) {
	root, err := filepath.Abs("testdata/src")
	if err != nil {
		t.Fatal(err)
	}
	l, err := newLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		patterns []string
		want     []string
	}{
		{[]string{"./..."}, []string{
			"fixture/cmd/tool", "fixture/internal/faults", "fixture/internal/gpu",
			"fixture/internal/serve", "fixture/internal/sim", "fixture/internal/sweep",
			"fixture/internal/trace", "fixture/internal/util",
		}},
		{[]string{"./internal/..."}, []string{
			"fixture/internal/faults", "fixture/internal/gpu", "fixture/internal/serve",
			"fixture/internal/sim", "fixture/internal/sweep", "fixture/internal/trace",
			"fixture/internal/util",
		}},
		{[]string{"./internal/sim", "./cmd/tool"}, []string{
			"fixture/cmd/tool", "fixture/internal/sim",
		}},
		{[]string{"fixture/internal/sim"}, []string{"fixture/internal/sim"}},
	}
	for _, c := range cases {
		got, err := l.expand(c.patterns)
		if err != nil {
			t.Errorf("expand(%v): %v", c.patterns, err)
			continue
		}
		if fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("expand(%v) = %v, want %v", c.patterns, got, c.want)
		}
	}
	if _, err := l.expand([]string{"./does/not/exist"}); err == nil {
		t.Error("expand of a nonexistent package did not fail")
	}
}

// TestDiagnosticJSON pins the machine-readable shape -json emits.
func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{File: "a.go", Line: 3, Col: 7, Check: CheckMapOrder, Msg: "boom"}
	data, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"a.go","line":3,"col":7,"check":"map-order","msg":"boom"}`
	if string(data) != want {
		t.Errorf("json = %s, want %s", data, want)
	}
	if s := d.String(); s != "a.go:3:7: [map-order] boom" {
		t.Errorf("String() = %q", s)
	}
}

// TestRepoClean lints the real repository: the tree must stay free of
// determinism and unit-safety violations. This is the same gate CI runs
// via cmd/caislint, enforced from the test suite as well.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Skipf("module root not found: %v", err)
	}
	diags, err := Run(Config{Dir: root})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}
