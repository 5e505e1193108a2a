package cais_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"cais"
	"cais/internal/sweep"
)

// The parallel half of the determinism suite: fanning sweep points out
// over a worker pool changes no output byte. Rendered tables (through
// ExperimentConfig.Workers), attribution reports and per-point digests
// (through sweep.Map) must each reproduce the goldens that
// internal/experiments records at other worker counts.

func TestParallelExperimentTablesByteIdentical(t *testing.T) {
	for _, workers := range []int{2, 4} {
		cfg := cais.QuickExperiments()
		cfg.Workers = workers
		for _, id := range []string{"fig11", "fig2", "serving"} {
			out, err := cais.RunExperiment(id, cfg)
			if err != nil {
				t.Fatalf("%s (workers=%d): %v", id, workers, err)
			}
			checkQuick(t, id, workers, out)
		}
	}
}

// TestParallelAttributionByteIdentical: per-point reports arrive in
// worker-completion order, but each labeled report is the one points.txt
// records.
func TestParallelAttributionByteIdentical(t *testing.T) {
	cfg := cais.QuickExperiments()
	cfg.Workers = 2
	cfg.Attrib = cais.NewAttribAggregator()
	for _, id := range []string{"fig16", "fig13b"} {
		if _, err := cais.RunExperiment(id, cfg); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	var buf bytes.Buffer
	if err := cfg.Attrib.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Points []json.RawMessage `json:"points"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Points) == 0 {
		t.Fatal("aggregator collected no points")
	}
	want := goldenPoints(t)
	for _, raw := range doc.Points {
		var p struct {
			Label   string `json:"label"`
			Elapsed int64  `json:"elapsed_ps"`
		}
		if err := json.Unmarshal(raw, &p); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := fmt.Sprintf("%d %x", p.Elapsed, sum[:8]); got != want[p.Label] {
			t.Errorf("%s: %s, want points.txt's %q", p.Label, got, want[p.Label])
		}
	}
}

// TestParallelSweepDigestsByteIdentical checks the property under the
// rendered tables: each point's digest — telemetry and attribution report,
// not just the summary — is independent of the worker count. Every
// strategy's prefill and training layer fans out at 2 workers.
func TestParallelSweepDigestsByteIdentical(t *testing.T) {
	hw := cais.QuickExperiments().HW
	specs := append(cais.Strategies(), cais.ExtensionStrategies()...)
	phases := []string{"prefill", "training"}
	got, err := sweep.Map(len(specs)*len(phases), 2, func(i int) (string, error) {
		run := cais.RunInference
		if i%2 == 1 {
			run = cais.RunTraining
		}
		r, err := run(hw, specs[i/2], quickModel, 1, cais.RunOptions{Attrib: true})
		if err != nil {
			return "", err
		}
		return digest(r, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range got {
		checkPoint(t, "strategy/"+phases[i%2]+"/"+specs[i/2].Name, d)
	}
}
