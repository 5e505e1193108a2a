package cais_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"cais"
	"cais/internal/attrib"
)

// Acceptance tests for the time-attribution engine (DESIGN.md §12): for
// every evaluated strategy the per-component buckets and the critical-path
// shares must each sum to the run's elapsed time EXACTLY, in integer
// simulation ticks — attribution is a partition, not an estimate.

// tinyModel keeps attribution runs fast while still exercising every
// kernel kind and both communication directions.
func tinyModel() cais.Model {
	return cais.Model{Name: "Tiny", Hidden: 512, FFNHidden: 2048, Heads: 4, SeqLen: 512, Batch: 2, Layers: 2}
}

func attributedRun(t *testing.T, s cais.Strategy, sched *cais.FaultSchedule) cais.Result {
	t.Helper()
	hw := cais.DGXH100()
	hw.RequestBytes = 32 << 10
	hw.Seed = 0xD37E12
	res, err := cais.RunInference(hw, s, tinyModel(), 1, cais.RunOptions{Attrib: true, Faults: sched})
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	if res.Attrib == nil {
		t.Fatalf("%s: RunOptions.Attrib set but Result.Attrib is nil", s.Name)
	}
	return res
}

func assertExactPartition(t *testing.T, name string, res cais.Result) {
	t.Helper()
	rep := res.Attrib
	if rep.Elapsed != res.Elapsed {
		t.Errorf("%s: report elapsed %v != run elapsed %v", name, rep.Elapsed, res.Elapsed)
	}
	if len(rep.Components) == 0 {
		t.Fatalf("%s: report has no components", name)
	}
	for _, c := range rep.Components {
		if got := c.Total(); got != rep.Elapsed {
			t.Errorf("%s/%s: buckets sum to %v, want elapsed %v (off by %d ticks)",
				name, c.Name, got, rep.Elapsed, int64(got-rep.Elapsed))
		}
		for _, b := range c.Buckets {
			if b < 0 {
				t.Errorf("%s/%s: negative bucket %v", name, c.Name, b)
			}
		}
	}
	var pathSum cais.Time
	for _, s := range rep.PathShare {
		pathSum += s.Time
	}
	if pathSum != rep.Elapsed {
		t.Errorf("%s: critical-path shares sum to %v, want elapsed %v", name, pathSum, rep.Elapsed)
	}
}

// TestAttributionBucketsSumExact covers every strategy of the evaluation
// (the Table II pair included): exact partition per GPU and per plane.
func TestAttributionBucketsSumExact(t *testing.T) {
	for _, s := range cais.Strategies() {
		assertExactPartition(t, s.Name, attributedRun(t, s, nil))
	}
}

// TestAttributionExactUnderFaults repeats the partition check with a mixed
// fault schedule active: fault windows claim time like any other bucket
// and must not break exactness.
func TestAttributionExactUnderFaults(t *testing.T) {
	sched, err := cais.ParseFaultSchedule([]byte(`{
		"name": "attrib-mix",
		"faults": [
			{"kind": "link-degrade", "at_us": 5, "for_us": 100, "factor": 0.5},
			{"kind": "plane-down", "at_us": 20, "plane": 3},
			{"kind": "straggler", "at_us": 0, "gpu": 1, "factor": 1.5}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	res := assertFaultAttrib(t, sched)
	// The straggler targets gpu1 from t=0 with no end: some fault-stall
	// time must actually be attributed, or the schedule wiring is dead.
	var fault cais.Time
	for _, c := range res.Attrib.Components {
		fault += c.Buckets[attrib.FaultStall]
	}
	if fault == 0 {
		t.Error("active fault schedule attributed zero fault-stall time")
	}
}

func assertFaultAttrib(t *testing.T, sched *cais.FaultSchedule) cais.Result {
	t.Helper()
	res := attributedRun(t, cais.CAIS(), sched)
	assertExactPartition(t, "CAIS+faults", res)
	return res
}

// TestAttributionReportExports smoke-tests the single-run export surface:
// both JSON forms must be valid documents and the rendered tables
// non-empty.
func TestAttributionReportExports(t *testing.T) {
	res := attributedRun(t, cais.CAIS(), nil)
	if out := res.Attrib.Render(); len(out) == 0 {
		t.Fatal("empty rendered report")
	}
	var buf bytes.Buffer
	if err := res.Attrib.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var point struct {
		Elapsed    int64             `json:"elapsed_ps"`
		Components []json.RawMessage `json:"components"`
	}
	if err := json.Unmarshal(buf.Bytes(), &point); err != nil {
		t.Fatalf("attribution JSON does not decode: %v", err)
	}
	if point.Elapsed != int64(res.Elapsed) || len(point.Components) == 0 {
		t.Fatalf("attribution JSON lost data: elapsed %d, %d components", point.Elapsed, len(point.Components))
	}
	buf.Reset()
	if err := res.Attrib.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome trace export is not valid JSON")
	}
}

// TestAttributionDisabledIsFree pins the off-switch: without
// RunOptions.Attrib no report materializes and no tracer is implicitly
// attached (the hot path stays the nil-check-only seed path).
func TestAttributionDisabledIsFree(t *testing.T) {
	hw := cais.DGXH100()
	hw.RequestBytes = 32 << 10
	res, err := cais.RunInference(hw, cais.CAIS(), tinyModel(), 1, cais.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Attrib != nil {
		t.Fatal("attribution report produced without opt-in")
	}
	if res.Timeline.Bin != 0 {
		t.Fatal("utilization timeline recorded without opt-in")
	}
}
