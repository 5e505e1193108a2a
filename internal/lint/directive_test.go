package lint

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseSrc parses a synthetic file and runs directive extraction, the way
// lintPackage does.
func parseSrc(t *testing.T, src string) (*token.FileSet, *directiveSet, []Diagnostic) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	ds, diags := parseDirectives(fset, f)
	return fset, ds, diags
}

func diagMsgs(diags []Diagnostic) string {
	var parts []string
	for _, d := range diags {
		parts = append(parts, d.Msg)
	}
	return strings.Join(parts, " | ")
}

// TestDirectiveCoversTwoLines pins a directive's reach: its own line and
// the next. A multi-line statement below it is covered on its first line
// only, and a directive above a func never reaches into the body.
func TestDirectiveCoversTwoLines(t *testing.T) {
	_, ds, diags := parseSrc(t, `package p

func f() string {
	//caislint:ignore wallclock covers the first line of the call below
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
	if len(ds.list) != 2 {
		t.Fatalf("got %d directives, want 2", len(ds.list))
	}
	wall, rand := ds.list[0], ds.list[1]
	if wall.check != CheckWallclock || rand.check != CheckRand {
		t.Fatalf("directives cover %q and %q, want wallclock and rand", wall.check, rand.check)
	}
	for _, line := range []int{wall.line, wall.line + 1} {
		if !ds.suppressed(CheckWallclock, line) {
			t.Errorf("line %d (directive line %d) not suppressed", line, wall.line)
		}
	}
	if ds.suppressed(CheckWallclock, wall.line+3) {
		t.Error("directive reached the last line of the multi-line statement")
	}
	if ds.suppressed(CheckRand, wall.line+1) {
		t.Error("wallclock directive suppressed rand")
	}
	if ds.suppressed(CheckRand, rand.line+2) {
		t.Error("directive above func suppressed inside the body")
	}
}

func TestDirectiveUnusedReported(t *testing.T) {
	fset, ds, _ := parseSrc(t, `package p

//caislint:ignore wallclock this one matches
func f() {}

//caislint:ignore rand this one is stale
func g() {}
`)
	// Simulate a wallclock hit on f's line; the rand directive stays stale.
	if !ds.suppressed(CheckWallclock, ds.list[0].line+1) {
		t.Fatal("wallclock directive did not suppress")
	}
	unused := ds.unused(fset)
	if len(unused) != 1 || !strings.Contains(unused[0].Msg, "for rand") {
		t.Fatalf("want exactly the rand directive reported stale, got: %+v", unused)
	}
}
