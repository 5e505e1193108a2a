package serve

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"cais/internal/config"
	"cais/internal/memo"
	"cais/internal/metrics"
	"cais/internal/sim"
	"cais/internal/strategy"
)

func tinyModel() config.Model {
	return config.Model{Name: "Serve-Tiny", Hidden: 512, FFNHidden: 2048, Heads: 4, SeqLen: 512, Batch: 2, Layers: 4}
}

func tinyHW() config.Hardware {
	hw := config.DGXH100()
	hw.RequestBytes = 32 << 10
	return hw
}

func testWorkload() Workload {
	return Workload{
		Requests:   12,
		RatePerSec: 50,
		Prompt:     Uniform(64, 256),
		Output:     Uniform(4, 12),
		Seed:       0xCA15,
	}
}

func TestGenRequestsDeterministic(t *testing.T) {
	a, err := GenRequests(testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenRequests(testWorkload())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical workloads generated different traces")
	}
	var prev sim.Time
	for i, r := range a {
		if r.Arrival < prev {
			t.Fatalf("request %d arrives at %v before predecessor at %v", i, r.Arrival, prev)
		}
		prev = r.Arrival
		if r.PromptTokens < 64 || r.PromptTokens > 256 {
			t.Errorf("request %d prompt %d outside [64,256]", i, r.PromptTokens)
		}
		if r.OutputTokens < 4 || r.OutputTokens > 12 {
			t.Errorf("request %d output %d outside [4,12]", i, r.OutputTokens)
		}
	}
}

// TestGenRequestsStreamIsolation pins the labeled-stream property: changing
// the output-length distribution must not move a single arrival time or
// prompt length.
func TestGenRequestsStreamIsolation(t *testing.T) {
	w := testWorkload()
	a, err := GenRequests(w)
	if err != nil {
		t.Fatal(err)
	}
	w.Output = Fixed(8)
	b, err := GenRequests(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].PromptTokens != b[i].PromptTokens {
			t.Fatalf("request %d: changing the output distribution perturbed arrivals/prompts", i)
		}
		if b[i].OutputTokens != 8 {
			t.Fatalf("request %d: fixed output dist gave %d tokens", i, b[i].OutputTokens)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	cases := []struct {
		w    Workload
		want string // in the error
	}{
		{Workload{Requests: 0, RatePerSec: 1, Prompt: Fixed(1), Output: Fixed(1)}, "at least 1 request"},
		{Workload{Requests: 1, RatePerSec: 0, Prompt: Fixed(1), Output: Fixed(1)}, "arrival rate"},
		{Workload{Requests: 1, RatePerSec: math.NaN(), Prompt: Fixed(1), Output: Fixed(1)}, "arrival rate"},
		{Workload{Requests: 1, RatePerSec: math.Inf(1), Prompt: Fixed(1), Output: Fixed(1)}, "arrival rate"},
		// Each mean gap is 10^12 s, past the sim clock's range.
		{Workload{Requests: 1, RatePerSec: 1e-12, Prompt: Fixed(1), Output: Fixed(1)}, "request 0 arrives after one simulated day"},
		{Workload{Requests: 1, RatePerSec: 1, Prompt: Fixed(0), Output: Fixed(1)}, "prompt"},
		{Workload{Requests: 1, RatePerSec: 1, Prompt: Fixed(1), Output: Uniform(5, 2)}, "output"},
	}
	for i, c := range cases {
		if _, err := GenRequests(c.w); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("case %d: workload %+v: error %v, want one naming %q", i, c.w, err, c.want)
		}
	}
}

func TestQuantizeTokens(t *testing.T) {
	cases := map[int]int{1: 16, 16: 16, 17: 32, 100: 128, 128: 128, 129: 256}
	for in, want := range cases {
		if got := quantizeTokens(in); got != want {
			t.Errorf("quantizeTokens(%d) = %d, want %d", in, got, want)
		}
	}
}

// fixedCost is a deterministic unit-test cost model: linear in tokens.
type fixedCost struct{ perToken sim.Time }

func (f fixedCost) Prefill(tokens int) (sim.Time, error) { return f.perToken * sim.Time(tokens), nil }
func (f fixedCost) Decode(batch int) (sim.Time, error)   { return f.perToken * sim.Time(batch), nil }

// TestSchedulerInvariants drives the scheduler with an analytic cost model
// and checks the request-lifecycle invariants that every latency metric
// rests on.
func TestSchedulerInvariants(t *testing.T) {
	w := testWorkload()
	res, err := Run(w, fixedCost{perToken: sim.Microsecond}, SchedConfig{MaxBatch: 4, MaxPrefillTokens: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != w.Requests {
		t.Fatalf("completed %d requests, want %d", len(res.Requests), w.Requests)
	}
	if res.Iterations != res.PrefillIters+res.DecodeIters {
		t.Errorf("iterations %d != prefill %d + decode %d", res.Iterations, res.PrefillIters, res.DecodeIters)
	}
	var maxDone sim.Time
	for _, r := range res.Requests {
		if r.Admitted < r.Arrival {
			t.Errorf("request %d admitted at %v before arrival %v", r.ID, r.Admitted, r.Arrival)
		}
		if r.FirstToken <= r.Admitted {
			t.Errorf("request %d first token at %v not after admission %v", r.ID, r.FirstToken, r.Admitted)
		}
		if r.Done < r.FirstToken {
			t.Errorf("request %d done %v before first token %v", r.ID, r.Done, r.FirstToken)
		}
		if r.OutputTokens > 1 && r.Done == r.FirstToken {
			t.Errorf("request %d emitted %d tokens in zero decode time", r.ID, r.OutputTokens)
		}
		if r.Done > maxDone {
			maxDone = r.Done
		}
	}
	if res.Makespan != maxDone {
		t.Errorf("makespan %v != last completion %v", res.Makespan, maxDone)
	}
	if len(res.Requests) == 0 || res.Makespan <= 0 {
		t.Errorf("%d requests served in %v: no throughput", len(res.Requests), res.Makespan)
	}
}

// TestSchedulerDeterministic runs the same configuration twice and
// requires identical traces.
func TestSchedulerDeterministic(t *testing.T) {
	a, err := Run(testWorkload(), fixedCost{perToken: sim.Microsecond}, SchedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(testWorkload(), fixedCost{perToken: sim.Microsecond}, SchedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical scheduler runs produced different results")
	}
}

// TestStrategyCostMemoizesShapes is the tentpole's memo pin at the serve
// layer: a serving run issues one cost lookup per scheduler iteration, but
// quantized shapes collapse onto a handful of anchors — strictly fewer
// simulations than iterations, and a second run over the same cache
// simulates nothing new.
func TestStrategyCostMemoizesShapes(t *testing.T) {
	cache := memo.NewCache()
	cm, err := NewStrategyCost(tinyHW(), strategy.CAIS(), tinyModel(), 1, strategy.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(testWorkload(), cm, SchedConfig{MaxBatch: 4, MaxPrefillTokens: 512})
	if err != nil {
		t.Fatal(err)
	}
	if cm.Lookups() != int64(res.Iterations) {
		t.Errorf("%d lookups for %d iterations, want one per iteration", cm.Lookups(), res.Iterations)
	}
	if cm.Sims() == 0 {
		t.Fatal("no anchor simulations ran; the cost model is not consulting the strategy layer")
	}
	if cm.Sims() >= int64(res.Iterations) {
		t.Fatalf("sims (%d) not strictly fewer than scheduler iterations (%d)", cm.Sims(), res.Iterations)
	}
	t.Logf("serve memo: %d iterations, %d lookups, %d anchor simulations", res.Iterations, cm.Lookups(), cm.Sims())

	// Same shapes, same cache: a second cost model simulates nothing.
	cm2, err := NewStrategyCost(tinyHW(), strategy.CAIS(), tinyModel(), 1, strategy.Options{}, cache)
	if err != nil {
		t.Fatal(err)
	}
	res2, err := Run(testWorkload(), cm2, SchedConfig{MaxBatch: 4, MaxPrefillTokens: 512})
	if err != nil {
		t.Fatal(err)
	}
	if cm2.Sims() != 0 {
		t.Errorf("hot-cache run simulated %d new anchors, want 0", cm2.Sims())
	}
	if !reflect.DeepEqual(res.Requests, res2.Requests) {
		t.Error("hot-cache request trace differs from cold run")
	}
}

// TestStrategyCostPrivateCacheMatchesShared pins memo-on/off byte-identity
// at the cost layer: prices from a shared cache and from the private
// fallback cache are identical.
func TestStrategyCostPrivateCacheMatchesShared(t *testing.T) {
	shared, err := NewStrategyCost(tinyHW(), strategy.CAIS(), tinyModel(), 1, strategy.Options{}, memo.NewCache())
	if err != nil {
		t.Fatal(err)
	}
	private, err := NewStrategyCost(tinyHW(), strategy.CAIS(), tinyModel(), 1, strategy.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tokens := range []int{1, 7, 16, 100, 250} {
		a, err := shared.Prefill(tokens)
		if err != nil {
			t.Fatal(err)
		}
		b, err := private.Prefill(tokens)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Errorf("tokens=%d: shared-cache price %v != private-cache price %v", tokens, a, b)
		}
		if a <= 0 {
			t.Errorf("tokens=%d: non-positive price %v", tokens, a)
		}
	}
}

// TestStrategyCostRejectsUncacheableOptions: live callbacks cannot memoize,
// so the constructor refuses them up front.
func TestStrategyCostRejectsUncacheableOptions(t *testing.T) {
	opts := strategy.Options{Progress: func(sim.Time, uint64) {}}
	if _, err := NewStrategyCost(tinyHW(), strategy.CAIS(), tinyModel(), 1, opts, nil); err == nil {
		t.Fatal("uncacheable options accepted")
	}
}

// TestEvaluateExact checks the SLO evaluator against a handcrafted trace.
func TestEvaluateExact(t *testing.T) {
	mk := func(id int, arrival, admitted, first, done sim.Time, out int) Request {
		return Request{ID: id, Arrival: arrival, Admitted: admitted, FirstToken: first, Done: done, OutputTokens: out, PromptTokens: 1}
	}
	res := Result{
		Requests: []Request{
			mk(0, 0, 0, 1*sim.Millisecond, 2*sim.Millisecond, 2),
			mk(1, 0, 1*sim.Millisecond, 2*sim.Millisecond, 4*sim.Millisecond, 3),
			mk(2, 0, 2*sim.Millisecond, 4*sim.Millisecond, 10*sim.Millisecond, 4),
			mk(3, 0, 0, 8*sim.Millisecond, 8*sim.Millisecond, 1),
		},
		Makespan: 10 * sim.Millisecond,
	}
	sum := Evaluate(res, SLO{E2E: 8 * sim.Millisecond})
	if sum.Requests != 4 || sum.SLOMet != 3 {
		t.Fatalf("SLO met = %d/%d, want 3/4", sum.SLOMet, sum.Requests)
	}
	if sum.SLOShare != 0.75 {
		t.Errorf("SLO share %v, want 0.75", sum.SLOShare)
	}
	if sum.ThroughputRPS != 400 || sum.GoodputRPS != 300 {
		t.Errorf("throughput/goodput = %v/%v, want 400/300", sum.ThroughputRPS, sum.GoodputRPS)
	}
	if sum.E2E.P50 != 4*sim.Millisecond {
		t.Errorf("E2E p50 = %v, want 4ms (nearest rank of [2,4,8,10])", sum.E2E.P50)
	}
	if sum.E2E.P99 != 10*sim.Millisecond || sum.E2E.Max != 10*sim.Millisecond {
		t.Errorf("E2E p99/max = %v/%v, want 10ms/10ms", sum.E2E.P99, sum.E2E.Max)
	}
	// TPOT only counts multi-token requests: (2-1)/1, (4-2)/2, (10-4)/3 ms.
	if sum.TPOT.P50 != sim.Millisecond {
		t.Errorf("TPOT p50 = %v, want 1ms", sum.TPOT.P50)
	}
	// TTFT bound excludes request 3 (8ms TTFT > 4ms).
	strict := Evaluate(res, SLO{TTFT: 4 * sim.Millisecond})
	if strict.SLOMet != 3 {
		t.Errorf("TTFT-bound SLO met = %d, want 3", strict.SLOMet)
	}
	// No bounds: everything meets.
	if all := Evaluate(res, SLO{}); all.SLOMet != 4 {
		t.Errorf("unbounded SLO met = %d, want 4", all.SLOMet)
	}
}

func TestRecordExportsHistograms(t *testing.T) {
	res, err := Run(testWorkload(), fixedCost{perToken: sim.Microsecond}, SchedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	res.Record(reg)
	snap := reg.Snapshot()
	for _, name := range []string{"serve.queue_us", "serve.ttft_us", "serve.tpot_us", "serve.e2e_us"} {
		m, ok := snap.Get(name)
		if !ok || m.Count == 0 {
			t.Errorf("histogram %s missing or empty in snapshot", name)
			continue
		}
		if name != "serve.queue_us" && m.P99 < m.P50 {
			t.Errorf("%s: p99 %v < p50 %v", name, m.P99, m.P50)
		}
	}
}
