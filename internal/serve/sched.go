package serve

import (
	"fmt"

	"cais/internal/metrics"
	"cais/internal/sim"
)

// SchedConfig tunes the continuous-batching scheduler.
type SchedConfig struct {
	// MaxBatch caps concurrently decoding requests (default 16).
	MaxBatch int
	// MaxPrefillTokens budgets prompt tokens per prefill iteration; a
	// single over-budget request still admits alone (default 4096).
	MaxPrefillTokens int
}

func (sc SchedConfig) maxBatch() int {
	if sc.MaxBatch < 1 {
		return 16
	}
	return sc.MaxBatch
}

func (sc SchedConfig) maxPrefillTokens() int {
	if sc.MaxPrefillTokens < 1 {
		return 4096
	}
	return sc.MaxPrefillTokens
}

// Result is one serving simulation's outcome: the completed request trace
// plus scheduler and cost-model accounting.
type Result struct {
	Requests []Request
	// Iterations = PrefillIters + DecodeIters.
	Iterations   int
	PrefillIters int
	DecodeIters  int
	// Makespan is the completion time of the last request.
	Makespan sim.Time
}

// active is one running (decoding) request.
type active struct {
	req       *Request
	remaining int // output tokens still to emit
}

// Run drives the continuous-batching scheduler over the workload:
//
//   - Requests arrive on the sim clock per the workload's trace and wait
//     in a FIFO queue.
//   - Each scheduler iteration either admits queued requests (a prefill
//     iteration over their summed prompt tokens, bounded by the batch and
//     token budgets — prefill has priority, the vLLM-style policy) or
//     advances every running request by one token (a decode iteration).
//   - The clock advances by the cost model's price for the iteration;
//     per-request Admitted/FirstToken/Done timestamps fall out of the
//     loop, giving queueing, TTFT, TPOT and end-to-end latency exactly.
//
// The scheduler is a synchronous loop over sim.Time rather than a
// sim.Engine event program: iterations are strictly sequential (the batch
// is a single resource) and arrivals are known from the trace, so there is
// no event interleaving to resolve — and nothing for a worker count or
// map order to perturb. Determinism is by construction.
func Run(w Workload, cm CostModel, sc SchedConfig) (Result, error) {
	reqs, err := GenRequests(w)
	if err != nil {
		return Result{}, err
	}
	maxBatch := sc.maxBatch()
	maxPrefill := sc.maxPrefillTokens()

	var (
		clock    sim.Time
		queue    []*Request // arrived, waiting for admission
		running  []active   // decoding
		next     int        // next request index to arrive
		done     int
		res      Result
		makespan sim.Time
	)
	// Iteration guard: every iteration either admits a request or emits
	// one token per running request, so total iterations are bounded by
	// requests + total output tokens; anything past that is a bug.
	budget := len(reqs)
	for _, r := range reqs {
		budget += r.OutputTokens
	}

	for done < len(reqs) {
		if res.Iterations > budget {
			return Result{}, fmt.Errorf("serve: scheduler exceeded its iteration budget (%d); cost model returned a non-advancing price?", budget)
		}
		// Pull arrivals up to the current instant into the queue.
		for next < len(reqs) && reqs[next].Arrival <= clock {
			queue = append(queue, &reqs[next])
			next++
		}
		// Idle: jump to the next arrival.
		if len(running) == 0 && len(queue) == 0 {
			clock = reqs[next].Arrival
			continue
		}

		// Admission: fill free batch slots from the queue under the
		// prefill token budget. Prefill preempts decode (new requests'
		// first tokens beat in-flight tail tokens), the continuous-
		// batching policy the serving literature defaults to.
		var admit []*Request
		tokens := 0
		for len(queue) > 0 && len(running)+len(admit) < maxBatch {
			r := queue[0]
			if len(admit) > 0 && tokens+r.PromptTokens > maxPrefill {
				break
			}
			admit = append(admit, r)
			tokens += r.PromptTokens
			queue = queue[1:]
		}

		if len(admit) > 0 {
			cost, err := cm.Prefill(tokens)
			if err != nil {
				return Result{}, err
			}
			start := clock
			clock += cost
			res.PrefillIters++
			res.Iterations++
			for _, r := range admit {
				r.Admitted = start
				r.FirstToken = clock // prefill emits the first token
				if r.OutputTokens <= 1 {
					r.Done = clock
					done++
					makespan = clock
				} else {
					running = append(running, active{req: r, remaining: r.OutputTokens - 1})
				}
			}
			continue
		}

		// Decode: one token for every running request.
		cost, err := cm.Decode(len(running))
		if err != nil {
			return Result{}, err
		}
		clock += cost
		res.DecodeIters++
		res.Iterations++
		keep := running[:0]
		for _, a := range running {
			a.remaining--
			if a.remaining == 0 {
				a.req.Done = clock
				done++
				makespan = clock
			} else {
				keep = append(keep, a)
			}
		}
		running = keep
	}

	res.Requests = reqs
	res.Makespan = makespan
	return res, nil
}

// Record observes the request trace into latency histograms (serve.*_us,
// microsecond-valued) on the registry, exporting the distributions through
// the standard -metrics-json path with the registry's p50/p95/p99 fields.
// Call it from a single goroutine (registries are not goroutine-safe); the
// experiment drivers record during their sequential fold.
func (r Result) Record(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	queue := reg.Hist("serve.queue_us")
	ttft := reg.Hist("serve.ttft_us")
	tpot := reg.Hist("serve.tpot_us")
	e2e := reg.Hist("serve.e2e_us")
	for _, req := range r.Requests {
		queue.Observe(req.Queue().Microseconds())
		ttft.Observe(req.TTFT().Microseconds())
		if req.OutputTokens > 1 {
			tpot.Observe(req.TPOT().Microseconds())
		}
		e2e.Observe(req.E2E().Microseconds())
	}
}
