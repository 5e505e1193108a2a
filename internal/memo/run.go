package memo

import (
	"cais/internal/config"
	"cais/internal/model"
	"cais/internal/strategy"
)

// entry drops the run's machine, so the cache holds no live state.
func entry(res strategy.Result, err error) (Entry, error) {
	res.Machine = nil
	return res, err
}

// RunSubLayer is the memoizing wrapper around strategy.RunSubLayer: a nil
// cache or non-cacheable options (live callbacks) always simulate;
// otherwise the point simulates at most once per cache lifetime.
func RunSubLayer(c *Cache, hw config.Hardware, spec strategy.Spec, sub model.SubLayer, opts strategy.Options) (Entry, error) {
	run := func() (Entry, error) {
		return entry(strategy.RunSubLayer(hw, spec, sub, opts))
	}
	if c == nil || !Cacheable(opts) {
		return run()
	}
	return c.Do(KeySubLayer(hw, spec, sub, opts), run)
}

// RunLayers is the memoizing wrapper around strategy.RunLayersOpts.
func RunLayers(c *Cache, hw config.Hardware, spec strategy.Spec, cfg config.Model, training bool, layers int, opts strategy.Options) (Entry, error) {
	run := func() (Entry, error) {
		return entry(strategy.RunLayersOpts(hw, spec, cfg, training, layers, opts))
	}
	if c == nil || !Cacheable(opts) {
		return run()
	}
	return c.Do(KeyLayers(hw, spec, cfg, training, layers, opts), run)
}
