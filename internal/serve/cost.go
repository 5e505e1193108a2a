package serve

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cais/internal/config"
	"cais/internal/memo"
	"cais/internal/sim"
	"cais/internal/strategy"
)

// CostModel prices scheduler iterations. Implementations must be
// deterministic: the same token/batch argument always returns the same
// cost (the scheduler replays bit-identically only if they do).
type CostModel interface {
	// Prefill returns the cost of one prefill iteration over the given
	// total prompt tokens (summed over the admitted requests).
	Prefill(tokens int) (sim.Time, error)
	// Decode returns the cost of one decode iteration emitting one token
	// for each of batch running requests.
	Decode(batch int) (sim.Time, error)
}

// minShapeTokens is the smallest simulated token count: shapes quantize
// upward to a power of two no smaller than this, so a decode batch of 1
// and of 13 share the 16-token anchor simulation.
const minShapeTokens = 16

// quantizeTokens rounds n up to the next power of two, at least
// minShapeTokens. Quantization is what makes the per-shape memoization
// effective: a serving run issues hundreds of iteration-cost lookups but
// only ever simulates a handful of anchor shapes.
func quantizeTokens(n int) int {
	q := minShapeTokens
	for q < n {
		q <<= 1
	}
	return q
}

// StrategyCost prices iterations by simulating the strategy/machine layer
// on shape anchors: a token count t maps to a one-layer forward pass of
// the base architecture reshaped to Batch=1, SeqLen=quantize(t), scaled
// back linearly to t tokens and up to the full model depth (the layer-
// homogeneity argument of DESIGN.md §1). A decode iteration over B
// sequences is priced as a forward pass over B tokens: per token, the
// tensor-parallel GEMM and collective volumes are shape-equivalent, and
// the KV-cache attention depth this ignores is second-order for the
// communication behavior under study.
//
// Anchor simulations flow through memo.RunLayers. With a shared cache the
// anchors join the sweep-wide pool (shapes repeat across arrival rates, so
// cross-point hits are the common case); with none a private cache still
// guarantees one simulation per shape per cost model. Costs are identical
// either way, so serving output is byte-identical memo on or off.
type StrategyCost struct {
	hw     config.Hardware
	spec   strategy.Spec
	base   config.Model
	layers int
	opts   strategy.Options
	cache  *memo.Cache

	// anchors holds each quantized shape's model and memo key: a serving
	// run prices hundreds of thousands of iterations over a handful of
	// shapes, so the key is digested once per shape, not once per lookup.
	mu      sync.Mutex
	anchors map[int]anchor

	sims    atomic.Int64 // anchor simulations actually run
	lookups atomic.Int64 // Prefill/Decode calls served
}

// anchor is one quantized shape's simulated model and its memo key.
type anchor struct {
	model config.Model
	key   uint64
}

// NewStrategyCost builds a cost model for one (hardware, strategy, model)
// configuration. layers is the per-iteration simulated depth (<= 1 means
// 1); opts carries run knobs — notably Options.Faults for degraded-mode
// pricing. cache may be nil: a private per-model cache is used so repeated
// shapes still simulate once.
func NewStrategyCost(hw config.Hardware, spec strategy.Spec, base config.Model, layers int, opts strategy.Options, cache *memo.Cache) (*StrategyCost, error) {
	if base.Layers < 1 {
		return nil, fmt.Errorf("serve: base model %q has %d layers", base.Name, base.Layers)
	}
	if layers < 1 {
		layers = 1
	}
	if !memo.Cacheable(opts) {
		return nil, fmt.Errorf("serve: cost-model options must be cacheable (no Tracer/Progress observers)")
	}
	if cache == nil {
		cache = memo.NewCache()
	}
	return &StrategyCost{hw: hw, spec: spec, base: base, layers: layers, opts: opts, cache: cache,
		anchors: map[int]anchor{}}, nil
}

// Sims reports how many anchor simulations this model triggered (cache
// misses it caused). The scheduler's memo test pins Sims() strictly below
// the iteration count.
func (sc *StrategyCost) Sims() int64 { return sc.sims.Load() }

// Lookups reports how many iteration prices were served.
func (sc *StrategyCost) Lookups() int64 { return sc.lookups.Load() }

// anchorFor returns the simulated shape for q tokens and its memo key,
// deriving both on first use. The name encodes the anchor
// deterministically — config.Model.Name is part of the memo key, so it
// must be a pure function of the shape.
func (sc *StrategyCost) anchorFor(q int) anchor {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	a, ok := sc.anchors[q]
	if !ok {
		a.model = sc.base
		a.model.Name = fmt.Sprintf("serve/%s/tok%d", sc.base.Name, q)
		a.model.Batch = 1
		a.model.SeqLen = q
		a.key = memo.KeyLayers(sc.hw, sc.spec, a.model, false, sc.layers, sc.opts)
		sc.anchors[q] = a
	}
	return a
}

// tokenCost prices a forward pass over tokens tokens: simulate the
// quantized anchor once, then scale the full-depth extrapolation linearly
// from the anchor's token count to the requested one. All arithmetic is
// integer, so the price is exact and replayable.
func (sc *StrategyCost) tokenCost(tokens int) (sim.Time, error) {
	if tokens < 1 {
		return 0, fmt.Errorf("serve: non-positive token count %d", tokens)
	}
	sc.lookups.Add(1)
	q := quantizeTokens(tokens)
	a := sc.anchorFor(q)
	e, err := sc.cache.Do(a.key, func() (memo.Entry, error) {
		sc.sims.Add(1)
		return memo.RunLayers(nil, sc.hw, sc.spec, a.model, false, sc.layers, sc.opts)
	})
	if err != nil {
		return 0, fmt.Errorf("serve: anchor %s: %w", a.model.Name, err)
	}
	perLayer := e.Elapsed / sim.Time(sc.layers)
	full := perLayer * sim.Time(sc.base.Layers)
	return full * sim.Time(tokens) / sim.Time(q), nil
}

// Prefill prices a prefill iteration over the admitted prompt tokens.
func (sc *StrategyCost) Prefill(tokens int) (sim.Time, error) { return sc.tokenCost(tokens) }

// Decode prices a decode iteration for a batch of running requests.
func (sc *StrategyCost) Decode(batch int) (sim.Time, error) { return sc.tokenCost(batch) }
