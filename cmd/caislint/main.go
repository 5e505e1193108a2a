// Command caislint runs the project's determinism and unit-safety static
// analyzer over the simulator source tree.
//
// Usage:
//
//	caislint [-json] [-list] [-C dir] [patterns...]
//
// Patterns default to "./..." and are resolved against the module root (a
// directory containing go.mod, found by walking up from -C or the current
// directory). Every check runs; -list prints the registered checks and
// exits.
//
// Exit status is 0 when the tree is clean, 1 when diagnostics were
// reported, and 2 when the analysis itself failed to run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"cais/internal/lint"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit diagnostics as a JSON array")
	list := flag.Bool("list", false, "print the registered checks with their one-line docs and exit")
	dir := flag.String("C", ".", "directory to start the module-root search from")
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	root, err := findModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "caislint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(lint.Config{Dir: root, Patterns: flag.Args()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "caislint:", err)
		os.Exit(2)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []lint.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "caislint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "caislint: %d violation(s)\n", len(diags))
		}
		os.Exit(1)
	}
}

// findModuleRoot walks up from dir until it finds a go.mod.
func findModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for d := abs; ; {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("no go.mod found above %s", abs)
		}
		d = parent
	}
}
