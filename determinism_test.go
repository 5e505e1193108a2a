package cais_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cais"
)

// The simulator's evaluation is only meaningful if runs are
// bit-reproducible. The reference is committed: internal/experiments'
// TestGolden writes and checks internal/experiments/testdata/golden (its
// golden_test.go says how to regenerate it). The tests here check that the
// public API reproduces those goldens, each from one run: the traced CAIS
// runs and sweep points of points.txt, and the tables of quick.txt.

const goldenDir = "internal/experiments/testdata/golden"

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatalf("%v (regenerate with `go test -run Golden ./internal/experiments`)", err)
	}
	return string(b)
}

// goldenPoints parses points.txt: "key elapsed_ps digest" lines whose key
// may hold spaces.
func goldenPoints(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, line := range strings.Split(readGolden(t, "points.txt"), "\n") {
		if i := strings.LastIndexByte(line, ' '); i > 0 && !strings.HasPrefix(line, "#") {
			if j := strings.LastIndexByte(line[:i], ' '); j > 0 {
				out[line[:j]] = line[j+1:]
			}
		}
	}
	return out
}

func checkPoint(t *testing.T, key, got string) {
	t.Helper()
	if want := goldenPoints(t)[key]; got != want {
		t.Errorf("%s: %s, want points.txt's %q", key, got, want)
	}
}

// checkQuick fails unless out is one experiment's section of quick.txt,
// where every section ends in a blank line.
func checkQuick(t *testing.T, id string, workers int, out string) {
	t.Helper()
	if !strings.Contains("\n\n"+readGolden(t, "quick.txt"), "\n\n"+out+"\n\n") {
		t.Errorf("%s at workers=%d is not its section of %s/quick.txt:\n%s", id, workers, goldenDir, out)
	}
}

// quickModel is the model of internal/experiments' quick fidelity.
var quickModel = cais.Model{Name: "Quick-Tiny", Hidden: 512, FFNHidden: 2048, Heads: 4, SeqLen: 512, Batch: 2, Layers: 4}

// digest hashes a run as internal/experiments' golden_test.go does for
// points.txt: the switch summary, link utilization, merge-table high
// water, the attribution report in both renderings, the simulated
// telemetry and, when traced, the event trace.
func digest(r cais.Result, tr *cais.Tracer) (string, error) {
	h := sha256.New()
	fmt.Fprintf(h, "%#v %v %d\n%s", r.Stats, r.AvgUtil, r.MergeHWM, r.Attrib.Render())
	var sim cais.Telemetry // without the host allocator gauges
	for _, m := range r.Telemetry.Metrics {
		if !strings.HasPrefix(m.Name, "pool.") && !strings.HasPrefix(m.Name, "arena.") {
			sim.Metrics = append(sim.Metrics, m)
		}
	}
	writes := []func(io.Writer) error{sim.WriteJSON, r.Attrib.WriteJSON}
	if tr != nil {
		writes = append(writes, tr.WriteJSON)
	}
	for _, write := range writes {
		if err := write(h); err != nil {
			return "", err
		}
	}
	return fmt.Sprintf("%d %s", r.Elapsed, hex.EncodeToString(h.Sum(nil)[:8])), nil
}

// tracedRun digests two traced CAIS layers of the quick model at the seed
// points.txt's traced/* entries use, with attribution on.
func tracedRun(t *testing.T, training bool, sched *cais.FaultSchedule) string {
	t.Helper()
	hw := cais.QuickExperiments().HW
	hw.Seed = 0xD37E12
	run := cais.RunInference
	if training {
		run = cais.RunTraining
	}
	tr := cais.NewTracer()
	r, err := run(hw, cais.CAIS(), quickModel, 2, cais.RunOptions{Tracer: tr, Faults: sched, Attrib: true})
	if err != nil {
		t.Fatalf("run(training=%v): %v", training, err)
	}
	d, err := digest(r, tr)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDeterminismInference(t *testing.T) {
	checkPoint(t, "traced/inference", tracedRun(t, false, nil))
}

func TestDeterminismTraining(t *testing.T) {
	checkPoint(t, "traced/training", tracedRun(t, true, nil))
}

// TestDeterminismExperimentTables renders tables sequentially through the
// public API and requires quick.txt's bytes — the property that makes
// regenerated paper tables diffable.
func TestDeterminismExperimentTables(t *testing.T) {
	cfg := cais.QuickExperiments()
	cfg.Workers = 1
	for _, id := range []string{"table1", "fig11"} {
		out, err := cais.RunExperiment(id, cfg)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		checkQuick(t, id, 1, out)
	}
}

// TestDeterminismUnderFaults: fault injection (failover, re-routing,
// retries) is exactly as reproducible as a healthy run.
func TestDeterminismUnderFaults(t *testing.T) {
	sched, err := cais.ParseFaultSchedule([]byte(`{
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
	checkPoint(t, "traced/faults", tracedRun(t, false, sched))
}

// TestEmptyFaultScheduleMatchesBaseline requires an empty schedule to be
// fully inert: the run digests exactly like the unfaulted one.
func TestEmptyFaultScheduleMatchesBaseline(t *testing.T) {
	checkPoint(t, "traced/inference", tracedRun(t, false, &cais.FaultSchedule{Name: "empty"}))
}
