// Package serve is the deterministic request-level LLM serving engine
// layered over the iteration-level simulator: a seeded open-loop arrival
// process feeds a continuous-batching scheduler whose per-iteration costs
// come from the strategy/machine layer (memoized per batch shape through
// internal/memo), and an SLO evaluator turns the per-request latencies
// into p50/p95/p99 and goodput numbers (DESIGN.md §13).
//
// Everything runs on the sim clock and every random draw comes from
// labeled sim.NewStreamRNG streams, so a (workload, cost model) pair
// replays bit-identically — the same determinism contract as the rest of
// the stack, and the property the serving experiment's parallel-sweep
// byte-identity tests pin.
package serve

import (
	"fmt"
	"math"

	"cais/internal/sim"
)

// LengthDist is a uniform token-length distribution over [Min, Max]; a
// fixed length is the one-value range.
type LengthDist struct {
	Min, Max int
}

// Fixed returns a distribution yielding v always.
func Fixed(v int) LengthDist { return Uniform(v, v) }

// Uniform returns a uniform distribution over [lo, hi].
func Uniform(lo, hi int) LengthDist { return LengthDist{Min: lo, Max: hi} }

// sample draws one length; a fixed length still draws, from its own
// stream, so it moves no other draw.
func (d LengthDist) sample(rng *sim.RNG) int { return d.Min + rng.Intn(d.Max-d.Min+1) }

func (d LengthDist) validate(what string) error {
	if d.Min < 1 || d.Max < d.Min {
		return fmt.Errorf("serve: %s: uniform bounds [%d,%d], want 1 <= min <= max", what, d.Min, d.Max)
	}
	return nil
}

// Workload describes an open-loop serving workload: requests arrive by a
// Poisson process (deterministic exponential inter-arrivals) regardless of
// how fast the system drains them.
type Workload struct {
	// Requests is the number of requests to generate.
	Requests int
	// RatePerSec is the mean arrival rate in requests per second.
	RatePerSec float64
	// Prompt and Output are the per-request token-length distributions.
	Prompt LengthDist
	Output LengthDist
	// Seed is the base seed; arrivals and each length distribution draw
	// from independent labeled streams, so changing one distribution never
	// perturbs the others.
	Seed uint64
}

// Validate checks the workload parameters.
func (w Workload) Validate() error {
	if w.Requests < 1 {
		return fmt.Errorf("serve: workload needs at least 1 request, have %d", w.Requests)
	}
	if !(w.RatePerSec > 0) || math.IsInf(w.RatePerSec, 1) {
		return fmt.Errorf("serve: arrival rate must be finite and positive, have %g", w.RatePerSec)
	}
	if err := w.Prompt.validate("prompt"); err != nil {
		return err
	}
	return w.Output.validate("output")
}

// Request is one serving request with its lifecycle timestamps, all on the
// sim clock. The arrival fields are set by GenRequests; the rest by the
// scheduler.
type Request struct {
	ID           int
	Arrival      sim.Time // enters the queue
	PromptTokens int
	OutputTokens int

	Admitted   sim.Time // pulled from the queue into a prefill iteration
	FirstToken sim.Time // end of its prefill iteration (TTFT anchor)
	Done       sim.Time // last output token emitted
}

// Queue reports the request's queueing delay.
func (r Request) Queue() sim.Time { return r.Admitted - r.Arrival }

// TTFT reports time-to-first-token (arrival to end of prefill).
func (r Request) TTFT() sim.Time { return r.FirstToken - r.Arrival }

// TPOT reports the mean time-per-output-token over the decode phase; zero
// for single-token outputs (there is no inter-token gap to measure).
func (r Request) TPOT() sim.Time {
	if r.OutputTokens <= 1 {
		return 0
	}
	return (r.Done - r.FirstToken) / sim.Time(r.OutputTokens-1)
}

// E2E reports the end-to-end latency.
func (r Request) E2E() sim.Time { return r.Done - r.Arrival }

// maxArrival bounds every request's arrival: one simulated day, far past
// any serving study (4096 requests at 10 rps arrive within about 410 s)
// and far inside sim.Time's range of about 106 days, so the scheduler's
// clock and every latency stay representable.
const maxArrival = 24 * 3600 * sim.Second

// GenRequests materializes the workload's request trace: exponential
// inter-arrivals at RatePerSec plus per-request prompt/output lengths,
// each from its own labeled stream of the workload seed. The trace is
// sorted by arrival time by construction and is a pure function of the
// workload value. A request arriving after one simulated day is an error.
func GenRequests(w Workload) ([]Request, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	arrivals := sim.NewStreamRNG(w.Seed, "serve/arrivals")
	prompts := sim.NewStreamRNG(w.Seed, "serve/prompt")
	outputs := sim.NewStreamRNG(w.Seed, "serve/output")

	reqs := make([]Request, w.Requests)
	var at sim.Time
	for i := range reqs {
		// Exponential gap with mean 1/rate seconds, checked in float
		// seconds before Scale (the audited float->Time conversion)
		// could overflow.
		gap := arrivals.ExpFloat64() / w.RatePerSec
		if gap > (maxArrival - at).Seconds() {
			return nil, fmt.Errorf("serve: request %d arrives after one simulated day at %g requests/s", i, w.RatePerSec)
		}
		at += sim.Scale(sim.Second, gap)
		reqs[i] = Request{
			ID:           i,
			Arrival:      at,
			PromptTokens: w.Prompt.sample(prompts),
			OutputTokens: w.Output.sample(outputs),
		}
	}
	return reqs, nil
}
