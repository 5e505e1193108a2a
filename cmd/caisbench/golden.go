package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"sort"

	"cais/internal/memo"
)

// goldenJSON holds one digest per op at the default seed; -update rewrites
// it.
//
//go:embed testdata/golden.json
var goldenJSON []byte

type goldenFile struct {
	Seed uint64            `json:"seed"`
	Ops  map[string]string `json:"ops"`
}

func parseGolden() (goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return g, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

// digestEntry digests everything observable about one simulated point:
// elapsed ticks, the switch summary, the telemetry snapshot and, when
// present, the attribution report. %#v prints sim.Time fields as raw
// ticks rather than rounded strings.
func digestEntry(e memo.Entry) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s %d %#v\n", e.Strategy, e.Elapsed, e.Stats)
	// A hash.Hash's Write never fails.
	_ = e.Telemetry.WriteJSON(h)
	if e.Attrib != nil {
		_ = e.Attrib.WriteJSON(h)
	}
	return sum(h)
}

// digestf digests formatted values.
func digestf(format string, a ...any) string {
	h := sha256.New()
	fmt.Fprintf(h, format, a...)
	return sum(h)
}

// sum renders a digest as 16 hex digits, enough to tell outputs apart.
func sum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)[:8]) }

// checker decides which ops failed. An op fails when it returned an error
// or panicked, or when its digest differs from the expected one: the
// golden at the default seed, and the op's first digest of this run at
// any other seed, where no golden exists.
type checker struct {
	want  map[string]string
	learn bool
	first []op // the first pass's ops, printed at seeds without goldens

	attempted, failed int
	failures          []string
}

func newChecker(seed uint64, g goldenFile) *checker {
	if seed == g.Seed {
		return &checker{want: g.Ops}
	}
	return &checker{want: map[string]string{}, learn: true}
}

func (c *checker) check(ops []op) {
	if c.first == nil {
		c.first = ops
	}
	for _, o := range ops {
		c.attempted++
		err := o.err
		if err == nil {
			want, ok := c.want[o.name]
			switch {
			case !ok && c.learn:
				c.want[o.name] = o.digest
			case !ok:
				err = fmt.Errorf("no golden digest (run caisbench -update)")
			case want != o.digest:
				err = fmt.Errorf("digest %s, want %s", o.digest, want)
			}
		}
		if err != nil {
			c.fail(o.name, err)
		}
	}
}

func (c *checker) fail(name string, err error) {
	c.failed++
	c.failures = append(c.failures, fmt.Sprintf("%s: %v", name, err))
}

// report prints the outcome of the checks: failures, and at seeds without
// goldens the digests, so that runs of two commits can be compared.
func (c *checker) report(seed uint64) {
	fmt.Printf("   fail_ratio     %d/%d ops failed\n", c.failed, c.attempted)
	for i, f := range c.failures {
		if i == 10 {
			fmt.Printf("   FAIL ... %d more\n", len(c.failures)-i)
			break
		}
		fmt.Printf("   FAIL %s\n", f)
	}
	if !c.learn {
		fmt.Printf("   goldens        %d ops checked against testdata/golden.json\n", len(c.first))
		return
	}
	ops := append([]op(nil), c.first...)
	sort.Slice(ops, func(i, j int) bool { return ops[i].name < ops[j].name })
	fmt.Printf("   digests at seed %#x (no goldens at this seed):\n", seed)
	for _, o := range ops {
		fmt.Printf("     %s %s\n", o.digest, o.name)
	}
}
