package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc parses a synthetic file and runs directive extraction plus
// range resolution, the way lintPackage does.
func parseSrc(t *testing.T, src string) (*token.FileSet, *directiveSet, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ds, diags := parseDirectives(fset, f)
	ds.resolveRanges(fset, f)
	return fset, ds, diags
}

func diagMsgs(diags []Diagnostic) string {
	var parts []string
	for _, d := range diags {
		parts = append(parts, d.Msg)
	}
	return strings.Join(parts, " | ")
}

func TestDirectiveMultiCheck(t *testing.T) {
	_, ds, diags := parseSrc(t, `package p

func f() {
	//caislint:ignore wallclock,rand,units one comment, three checks
	_ = 1
}
`)
	if len(diags) != 0 {
		t.Fatalf("well-formed multi-check directive reported: %s", diagMsgs(diags))
	}
	if len(ds.list) != 3 {
		t.Fatalf("got %d directives, want 3 (one per named check)", len(ds.list))
	}
	want := []string{CheckWallclock, CheckRand, CheckUnits}
	for i, d := range ds.list {
		if d.check != want[i] {
			t.Errorf("directive %d covers %q, want %q", i, d.check, want[i])
		}
		if d.fileWide {
			t.Errorf("directive %d is file-wide, want line-scoped", i)
		}
	}
	// Each expanded directive suppresses independently.
	if !ds.suppressed(CheckRand, ds.list[0].line+1) {
		t.Error("rand not suppressed on the annotated line")
	}
	if ds.suppressed(CheckGoroutine, ds.list[0].line+1) {
		t.Error("goroutine suppressed though the directive never named it")
	}
}

func TestDirectiveMultiCheckMissingReason(t *testing.T) {
	_, ds, diags := parseSrc(t, `package p

//caislint:ignore wallclock,rand
func f() {}
`)
	if len(ds.list) != 0 {
		t.Fatalf("reason-less directive produced %d suppressions, want 0", len(ds.list))
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Msg, "mandatory reason") {
		t.Fatalf("want one missing-reason diagnostic, got: %s", diagMsgs(diags))
	}
}

func TestDirectiveMultiCheckUnknownName(t *testing.T) {
	_, ds, diags := parseSrc(t, `package p

//caislint:ignore wallclock,frob,rand,blah the list mixes known and unknown
func f() {}
`)
	if len(ds.list) != 0 {
		t.Fatalf("poisoned directive produced %d suppressions, want 0", len(ds.list))
	}
	if len(diags) != 2 {
		t.Fatalf("want one diagnostic per unknown name, got %d: %s", len(diags), diagMsgs(diags))
	}
	for _, d := range diags {
		if !strings.Contains(d.Msg, "unknown check") {
			t.Errorf("unexpected diagnostic: %s", d.Msg)
		}
	}
}

// TestDirectiveStatementRange is the unit-level regression for multi-line
// suppression: a directive above a statement covers every line the
// statement spans, and a directive above a func covers only the func line
// (never the whole body).
func TestDirectiveStatementRange(t *testing.T) {
	_, ds, diags := parseSrc(t, `package p

func f() string {
	//caislint:ignore wallclock spans the whole call below
	return sprintf("%v %v",
		1,
		2)
}

//caislint:ignore rand must not blanket the body
func g() int {
	return 3
}

func sprintf(string, ...any) string { return "" }
`)
	if len(diags) != 0 {
		t.Fatalf("unexpected diagnostics: %s", diagMsgs(diags))
	}
	var wall, rand *directive
	for _, d := range ds.list {
		switch d.check {
		case CheckWallclock:
			wall = d
		case CheckRand:
			rand = d
		}
	}
	if wall == nil || rand == nil {
		t.Fatal("directives not parsed")
	}
	// The return statement starts on wall.line+1 and ends two lines later.
	if wall.covEnd != wall.line+3 {
		t.Errorf("wallclock directive covers through line %d, want %d (statement end)", wall.covEnd, wall.line+3)
	}
	if !ds.suppressed(CheckWallclock, wall.line+3) {
		t.Error("last line of the multi-line statement not suppressed")
	}
	// FuncDecls are excluded from widening: coverage stays at line+1.
	if rand.covEnd != rand.line+1 {
		t.Errorf("func-level directive covers through line %d, want %d (func line only)", rand.covEnd, rand.line+1)
	}
	if ds.suppressed(CheckRand, rand.line+2) {
		t.Error("directive above func suppressed inside the body")
	}
}

func TestDirectiveUnusedReported(t *testing.T) {
	fset, ds, _ := parseSrc(t, `package p

//caislint:ignore wallclock,rand only one half will match
func f() {}
`)
	// Simulate a wallclock hit on the func line; the rand half stays stale.
	if !ds.suppressed(CheckWallclock, ds.list[0].line+1) {
		t.Fatal("wallclock half did not suppress")
	}
	unused := ds.unused(fset)
	if len(unused) != 1 || !strings.Contains(unused[0].Msg, "for rand") {
		t.Fatalf("want exactly the rand half reported stale, got: %+v", unused)
	}
}
