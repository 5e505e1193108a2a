package serve

import (
	"math"
	"testing"

	"cais/internal/sim"
)

// FuzzWorkload holds every workload to one property: GenRequests rejects
// it or returns arrivals that are non-negative and non-decreasing, and a
// small enough workload serves to completion under an analytic cost model
// with no negative queueing delay, TTFT or end-to-end latency. The seeds
// are a quick serving workload, the rates that once overflowed the sim
// clock or slipped past Validate, zero requests and inverted uniform
// bounds.
func FuzzWorkload(f *testing.F) {
	add := func(w Workload) {
		f.Add(w.Requests, w.RatePerSec, w.Prompt.Min, w.Prompt.Max, w.Output.Min, w.Output.Max, w.Seed)
	}
	quick := Workload{Requests: 16, RatePerSec: 1000, Prompt: Uniform(32, 128), Output: Uniform(4, 8), Seed: 0xCA15}
	add(quick)
	for _, rate := range []float64{math.NaN(), math.Inf(1), 1e-12} {
		w := quick
		w.RatePerSec = rate
		add(w)
	}
	none := quick
	none.Requests = 0
	add(none)
	inverted := quick
	inverted.Output = Uniform(5, 2)
	add(inverted)

	f.Fuzz(func(t *testing.T, requests int, rate float64, pMin, pMax, oMin, oMax int, seed uint64) {
		w := Workload{
			Requests: requests, RatePerSec: rate,
			Prompt: Uniform(pMin, pMax), Output: Uniform(oMin, oMax),
			Seed: seed,
		}
		if requests > 4096 {
			t.Skip("trace larger than the harness allocates")
		}
		reqs, err := GenRequests(w)
		if err != nil {
			return
		}
		var prev sim.Time
		for i, r := range reqs {
			if r.Arrival < prev {
				t.Fatalf("%+v: request %d arrives at %v, before %v", w, i, r.Arrival, prev)
			}
			prev = r.Arrival
		}
		longest := 0
		for _, r := range reqs {
			longest = max(longest, r.PromptTokens, r.OutputTokens)
		}
		if requests > 256 || longest > 4096 {
			return
		}
		res, err := Run(w, fixedCost{perToken: sim.Microsecond}, SchedConfig{})
		if err != nil {
			t.Fatalf("%+v: %v", w, err)
		}
		for _, r := range res.Requests {
			if r.Queue() < 0 || r.TTFT() < 0 || r.E2E() < 0 {
				t.Fatalf("%+v: request %d: queue %v, TTFT %v, E2E %v", w, r.ID, r.Queue(), r.TTFT(), r.E2E())
			}
		}
	})
}
