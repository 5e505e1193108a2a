package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"cais/internal/attrib"
	"cais/internal/config"
	"cais/internal/faults"
	"cais/internal/memo"
	"cais/internal/serve"
	"cais/internal/sim"
	"cais/internal/strategy"
	"cais/internal/sweep"
	"cais/internal/trace"
)

// A workload is one named set of inputs. setup builds them from the seed
// (all of it is timed as setup_s) and returns the pass: the fixed unit of
// work the harness repeats and times. A pass returns one op per output it
// checks. BENCHMARK.json and README.md say why each workload exists.
//
// Sizes keep one pass between about 0.5 and 3 s on a 2-vCPU host, so a
// 25 s run takes medians over five or more passes.
type workload struct {
	name  string
	setup func(seed uint64) (passFunc, error)
}

// passFunc runs one pass. rec is nil in untraced runs.
type passFunc func(rec *recorder) []op

// op is the outcome of one checked operation: a strategy point, a serving
// run, or serving-long's check on its memo cache.
type op struct {
	name   string
	digest string
	err    error
}

var workloads = []workload{
	{"layer-hot", setupLayerHot},
	{"strategy-matrix", setupStrategyMatrix},
	{"gpu-scaling", setupGPUScaling},
	{"serving-long", setupServingLong},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadNamed(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// hardware is the DGX-H100 configuration at the given size, request
// granularity and seed.
func hardware(seed uint64, gpus int, requestBytes int64) (config.Hardware, error) {
	hw := config.DGXH100()
	hw.NumGPUs = gpus
	hw.RequestBytes = requestBytes
	hw.Seed = seed
	return hw, hw.Validate()
}

// llama7B is LLaMA-7B's layer shape over fewer tokens: one sequence of
// seqLen.
func llama7B(seqLen int) (config.Model, error) {
	m := config.LLaMA7B()
	m.Name = fmt.Sprintf("%s/%d", m.Name, seqLen)
	m.Batch, m.SeqLen = 1, seqLen
	return m, m.Validate()
}

func specsNamed(names ...string) ([]strategy.Spec, error) {
	specs := make([]strategy.Spec, len(names))
	for i, n := range names {
		s, err := strategy.ByName(n)
		if err != nil {
			return nil, err
		}
		specs[i] = s
	}
	return specs, nil
}

func entryOf(res strategy.Result) memo.Entry {
	return memo.Entry{Strategy: res.Strategy, Elapsed: res.Elapsed, Stats: res.Stats,
		Telemetry: res.Telemetry, Attrib: res.Attrib}
}

// guard runs one op, turning a panic into the op's error.
func guard(name string, run func() op) (o op) {
	defer func() {
		if r := recover(); r != nil {
			o = op{name: name, err: fmt.Errorf("panic: %v", r)}
		}
	}()
	return run()
}

// simulate runs one strategy point as an op and, when traced, records its
// host time and telemetry.
func simulate(name string, rec *recorder, run func() (memo.Entry, error)) op {
	return guard(name, func() op {
		start := time.Now()
		e, err := run()
		if err == nil && e.Elapsed <= 0 {
			err = fmt.Errorf("elapsed %d, want > 0", e.Elapsed)
		}
		if err == nil && e.Attrib != nil {
			err = checkAttrib(e)
		}
		if err != nil {
			return op{name: name, err: err}
		}
		rec.point(time.Since(start), e.Telemetry)
		return op{name: name, digest: digestEntry(e)}
	})
}

// checkAttrib checks the attribution invariant: every component's buckets
// sum exactly to elapsed.
func checkAttrib(e memo.Entry) error {
	if e.Attrib.Elapsed != e.Elapsed {
		return fmt.Errorf("attribution elapsed %d, run elapsed %d", e.Attrib.Elapsed, e.Elapsed)
	}
	for _, c := range e.Attrib.Components {
		if c.Total() != e.Elapsed {
			return fmt.Errorf("attribution of %s sums to %d, want %d", c.Name, c.Total(), e.Elapsed)
		}
	}
	return nil
}

// mapOps runs n jobs through sweep.Map on the given number of workers,
// returns their ops in job order and records the sweep's busy time when
// traced. Failures travel in op.err, so every op is attempted.
func mapOps(rec *recorder, n, workers int, fn func(i int) []op) []op {
	var busy atomic.Int64
	start := time.Now()
	jobs, _ := sweep.Map(n, workers, func(i int) ([]op, error) {
		t := time.Now()
		ops := fn(i)
		busy.Add(int64(time.Since(t)))
		return ops, nil
	})
	rec.sweep(workers, time.Since(start), time.Duration(busy.Load()))
	var ops []op
	for _, j := range jobs {
		ops = append(ops, j...)
	}
	return ops
}

func setupLayerHot(seed uint64) (passFunc, error) {
	hw, err := hardware(seed, 8, 32<<10)
	if err != nil {
		return nil, err
	}
	specs, err := specsNamed("CAIS", "TP-NVLS")
	if err != nil {
		return nil, err
	}
	m := config.LLaMA7B()
	return func(rec *recorder) []op {
		ops := make([]op, len(specs))
		for i, spec := range specs {
			ops[i] = simulate("layer-hot/"+spec.Name, rec, func() (memo.Entry, error) {
				res, err := strategy.RunLayersOpts(hw, spec, m, false, 1, strategy.Options{})
				return entryOf(res), err
			})
		}
		return ops
	}, nil
}

func setupStrategyMatrix(seed uint64) (passFunc, error) {
	hw, err := hardware(seed, 8, 32<<10)
	if err != nil {
		return nil, err
	}
	// 1024 tokens, a ninth of LLaMA-7B's 9216: the full shape takes 18 s a
	// pass, too long to take medians within one run.
	m, err := llama7B(1024)
	if err != nil {
		return nil, err
	}
	type point struct {
		name     string
		spec     strategy.Spec
		training bool
	}
	var points []point
	for _, phase := range []string{"prefill", "training"} {
		for _, s := range append(strategy.All(), strategy.Extensions()...) {
			points = append(points, point{"strategy-matrix/" + phase + "/" + s.Name, s, phase == "training"})
		}
	}
	return func(rec *recorder) []op {
		return mapOps(rec, len(points), 1, func(i int) []op {
			p := points[i]
			return []op{simulate(p.name, rec, func() (memo.Entry, error) {
				if rec == nil {
					res, err := strategy.RunLayersOpts(hw, p.spec, m, p.training, 1, strategy.Options{Attrib: true})
					return entryOf(res), err
				}
				// Traced: record the trace here and time attrib.Build. The
				// report must digest like the Options.Attrib one above.
				tr := trace.New()
				res, err := strategy.RunLayersOpts(hw, p.spec, m, p.training, 1, strategy.Options{Tracer: tr})
				if err != nil {
					return memo.Entry{}, err
				}
				start := time.Now()
				res.Attrib = attrib.Build(res.Machine, tr, res.Elapsed)
				rec.attrib(time.Since(start), tr.Len())
				return entryOf(res), nil
			})}
		})
	}, nil
}

// fig17Point is one simulated point of Fig. 17's sweep.
type fig17Point struct {
	name string
	hw   config.Hardware
	cfg  config.Model
	spec strategy.Spec
}

// fig17Rows builds Fig. 17's sweep the way experiments.Fig17 does: one row
// per GPU count, the hidden size scaled from base in proportion to the GPU
// count over counts[0], and CAIS then CoCoNet-NVLS on each row.
// TestGPUScalingReplicatesFig17 checks that every point has the memo key of
// the driver's point.
func fig17Rows(hw config.Hardware, base config.Model, counts []int) ([][]fig17Point, error) {
	rows := make([][]fig17Point, len(counts))
	for i, gpus := range counts {
		h := hw
		h.NumGPUs = gpus
		if err := h.Validate(); err != nil {
			return nil, err
		}
		cfg := base.Scale(float64(gpus) / float64(counts[0]))
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		for _, spec := range []strategy.Spec{strategy.CAIS(), strategy.CoCoNetNVLS()} {
			rows[i] = append(rows[i], fig17Point{fmt.Sprintf("gpu-scaling/p%d/%s", gpus, spec.Name), h, cfg, spec})
		}
	}
	return rows, nil
}

func setupGPUScaling(seed uint64) (passFunc, error) {
	// At Fig. 17's full size (LLaMA-7B, 8 KB requests) a pass takes 28 s;
	// 2048 tokens and 16 KB requests bring it to about 3 s and keep every
	// machine size.
	hw, err := hardware(seed, 8, 16<<10)
	if err != nil {
		return nil, err
	}
	base, err := llama7B(2048)
	if err != nil {
		return nil, err
	}
	rows, err := fig17Rows(hw, base, []int{8, 16, 24, 32})
	if err != nil {
		return nil, err
	}
	return func(rec *recorder) []op {
		// A fresh cache, as in a caissim invocation: every lookup simulates.
		cache := memo.NewCache()
		// One job per GPU count running both strategies in series, on two
		// workers, as experiments.Fig17 schedules them.
		ops := mapOps(rec, len(rows), 2, func(i int) []op {
			ops := make([]op, len(rows[i]))
			for j, p := range rows[i] {
				ops[j] = simulate(p.name, rec, func() (memo.Entry, error) {
					return memo.RunLayers(cache, p.hw, p.spec, p.cfg, false, 1, strategy.Options{})
				})
			}
			return ops
		})
		rec.memo(cache.Lookups(), cache.Hits())
		return ops
	}, nil
}

func setupServingLong(seed uint64) (passFunc, error) {
	hw, err := hardware(seed, 8, 32<<10)
	if err != nil {
		return nil, err
	}
	specs, err := specsNamed("CAIS", "TP-NVLS", "CoCoNet-NVLS", "T3")
	if err != nil {
		return nil, err
	}
	mix := faults.RandomSchedule(sim.NewStreamRNG(seed, "caisbench/faults"), "caisbench-mix",
		hw.NumGPUs, hw.NumSwitchPlanes, faults.CampaignSpec{Faults: 3, MaxDeadPlanes: 1})
	if err := mix.Validate(hw.NumGPUs, hw.NumSwitchPlanes); err != nil {
		return nil, err
	}
	// 10 requests/s is the serving experiment's rate under capacity: batches
	// form (about 1.4 requests per decode iteration), and the work of a pass
	// moves by a few percent with the seed. At 25 requests/s it moved by up
	// to 40%.
	wl := serve.Workload{Requests: 4096, RatePerSec: 10,
		Prompt: serve.Uniform(64, 512), Output: serve.Uniform(8, 32), Seed: seed}
	if _, err := serve.GenRequests(wl); err != nil {
		return nil, err
	}
	var points []servePoint
	for _, sc := range []struct {
		name  string
		sched *faults.Schedule
	}{{"healthy", nil}, {"faults", mix}} {
		for _, spec := range specs {
			points = append(points, servePoint{name: "serving-long/" + sc.name + "/" + spec.Name,
				hw: hw, spec: spec, opts: strategy.Options{Faults: sc.sched}, wl: wl})
		}
	}
	// The memo cache lives as long as the run. The first pass simulates the
	// anchors (which shapes occur, and what they cost under the fault mix,
	// depend on the seed); every later pass prices all its iterations from
	// the cache, which is the path this workload measures.
	cache := memo.NewCache()
	warm := false
	return func(rec *recorder) []op {
		sims := make([]int64, len(points))
		ops := mapOps(rec, len(points), 1, func(i int) []op {
			o, n := points[i].run(rec, cache)
			sims[i] = n
			return []op{o}
		})
		memoOp := op{name: "serving-long/memo", digest: digestf("entries=%d", cache.Len())}
		var total int64
		for _, n := range sims {
			total += n
		}
		if warm && total > 0 {
			memoOp.err = fmt.Errorf("%d anchors simulated again in a warm cache", total)
		}
		warm = true
		return append(ops, memoOp)
	}, nil
}

// servingSLO is the serving experiment's end-to-end latency objective.
const servingSLO = 750 * sim.Millisecond

type servePoint struct {
	name string
	hw   config.Hardware
	spec strategy.Spec
	opts strategy.Options
	wl   serve.Workload
}

// run serves the point's workload and returns the op and the number of
// anchors its cost model simulated.
func (p servePoint) run(rec *recorder, cache *memo.Cache) (o op, sims int64) {
	o = guard(p.name, func() op {
		cm, err := serve.NewStrategyCost(p.hw, p.spec, config.LLaMA7B(), 1, p.opts, cache)
		if err != nil {
			return op{name: p.name, err: err}
		}
		timed := &timedCost{cm: cm}
		var model serve.CostModel = cm
		if rec != nil {
			model = timed
		}
		start := time.Now()
		res, err := serve.Run(p.wl, model, serve.SchedConfig{})
		runTime := time.Since(start)
		sims = cm.Sims()
		if err != nil {
			return op{name: p.name, err: err}
		}
		s := serve.Evaluate(res, serve.SLO{E2E: servingSLO})
		if s.Requests != p.wl.Requests {
			return op{name: p.name, err: fmt.Errorf("%d requests completed, want %d", s.Requests, p.wl.Requests)}
		}
		rec.serve(res.Iterations, len(res.Requests), runTime, timed, cm.Lookups())
		return op{name: p.name, digest: digestf("%#v\n%d %d %d %d\n",
			s, res.Iterations, res.PrefillIters, res.DecodeIters, cm.Lookups())}
	})
	return o, sims
}

// timedCost wraps the serving cost model in the traced run: it times every
// Prefill and Decode call, and counts a call as a memo hit when the model
// simulated nothing during it.
type timedCost struct {
	cm        *serve.StrategyCost
	cost, hit time.Duration
	hits      int64
	decodes   int64 // decode iterations
	decoding  int64 // requests decoded, summed over decode iterations
}

func (t *timedCost) Prefill(tokens int) (sim.Time, error) { return t.call(t.cm.Prefill, tokens) }

func (t *timedCost) Decode(batch int) (sim.Time, error) {
	t.decodes++
	t.decoding += int64(batch)
	return t.call(t.cm.Decode, batch)
}

func (t *timedCost) call(price func(int) (sim.Time, error), n int) (sim.Time, error) {
	sims := t.cm.Sims()
	start := time.Now()
	c, err := price(n)
	d := time.Since(start)
	t.cost += d
	if t.cm.Sims() == sims {
		t.hits++
		t.hit += d
	}
	return c, err
}
