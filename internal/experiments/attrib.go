package experiments

import (
	"fmt"

	"cais/internal/config"
	"cais/internal/memo"
	"cais/internal/model"
	"cais/internal/strategy"
)

// runSubLayer is the drivers' labeled memo run of one sub-layer.
func (c Config) runSubLayer(label string, hw config.Hardware, spec strategy.Spec, sub model.SubLayer, opts strategy.Options) (memo.Entry, error) {
	return c.run(label, opts, func(opts strategy.Options) (memo.Entry, error) {
		return memo.RunSubLayer(c.Memo, hw, spec, sub, opts)
	})
}

// runLayers is runSubLayer's end-to-end counterpart.
func (c Config) runLayers(label string, hw config.Hardware, spec strategy.Spec, cfg config.Model, training bool, layers int, opts strategy.Options) (memo.Entry, error) {
	return c.run(label, opts, func(opts strategy.Options) (memo.Entry, error) {
		return memo.RunLayers(c.Memo, hw, spec, cfg, training, layers, opts)
	})
}

// run is the one labeled point run. A failing point's error begins with
// its label. With an attribution aggregator attached (Config.Attrib) it
// turns on the attribution pass for the point and folds the resulting
// report under the label; without one the options pass through untouched,
// so memo keys, run counts and alloc profiles match the pre-attribution
// behavior exactly. Attrib is a hashed option, so attributed points
// memoize like any other — a cache hit replays the recorded report.
func (c Config) run(label string, opts strategy.Options, fn func(strategy.Options) (memo.Entry, error)) (memo.Entry, error) {
	if c.Attrib != nil {
		opts.Attrib = true
	}
	e, err := fn(opts)
	if err != nil {
		return e, fmt.Errorf("%s: %w", label, err)
	}
	c.Attrib.Add(label, e.Attrib)
	return e, nil
}
