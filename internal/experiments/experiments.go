// Package experiments regenerates every table and figure of the paper's
// evaluation section (the experiment index in DESIGN.md §3): each driver
// runs the simulation sweep behind one figure and returns both structured
// rows and a rendered table for the CLI, benchmarks and EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"

	"cais/internal/attrib"
	"cais/internal/config"
	"cais/internal/memo"
	"cais/internal/metrics"
	"cais/internal/sim"
	"cais/internal/sweep"
)

// Config tunes experiment fidelity.
type Config struct {
	// HW is the base hardware; the drivers override per-experiment knobs
	// (GPU count, merge-table size, request granularity).
	HW config.Hardware

	// Quick trades fidelity for speed: a miniature model and coarse
	// request granularity. Used by the test suite; the CLI and benchmark
	// defaults run the full Table I configurations.
	Quick bool

	// Workers bounds the sweep worker pool fanning independent simulation
	// points out across goroutines (caissim -parallel). <= 0 selects
	// GOMAXPROCS; 1 runs strictly sequentially. Every driver collects
	// results by point index, so the rendered output is byte-identical at
	// any worker count (DESIGN.md "Parallel sweeps & engine hot path").
	Workers int

	// Memo is the cross-sweep simulation-point cache (DESIGN.md §10). When
	// set, drivers sharing anchor points — the repeated TP-NVLS / CAIS runs
	// behind Figs. 11/12/15/16 and Table II — simulate each point once per
	// invocation. Nil disables memoization (caissim -no-memo); output bytes
	// are identical either way, only the run count changes.
	Memo *memo.Cache

	// ServingRate, when positive, collapses the serving experiment's
	// arrival-rate sweep to this single rate in requests/second (caissim
	// -arrival-rate).
	ServingRate float64

	// ServingSLOMs, when positive, overrides the serving experiment's
	// end-to-end latency SLO in milliseconds (caissim -slo).
	ServingSLOMs float64

	// Metrics, when set, receives per-request serving latency histograms
	// (serve.*_us) from the serving experiment's sequential fold; caissim
	// exports the snapshot through -metrics-json. Registries are not
	// goroutine-safe, so drivers record only during the fold, never from
	// sweep workers.
	Metrics *metrics.Registry

	// Attrib, when set, collects a time-attribution report for every
	// simulation point the drivers run (caissim -attrib, DESIGN.md §12).
	// Points are labeled "<experiment>/<point>" and folded label-sorted, so
	// the aggregate renders byte-identically at any worker count. Nil (the
	// default) keeps attribution fully disabled: options pass through the
	// run helpers untouched.
	Attrib *attrib.Aggregator
}

// Default returns the full-fidelity configuration.
func Default() Config {
	return Config{HW: config.DGXH100()}
}

// Quick returns the reduced configuration used in tests: coarse request
// granularity everywhere and a miniature model for the wide sweeps, while
// the phenomena-sensitive microstudies keep the real LLaMA-7B shape.
func Quick() Config {
	c := Default()
	c.Quick = true
	c.HW.RequestBytes = 32 << 10
	return c
}

// models returns the evaluation models for the fidelity level.
func (c Config) models() []config.Model {
	if c.Quick {
		return []config.Model{quickModel()}
	}
	return config.TableIModels()
}

// primaryModel is the model used by single-model studies (LLaMA-7B in the
// paper). Quick mode keeps the real model: the microstudies' phenomena
// (merge-table pressure, arrival skew) need realistic tensor shapes.
func (c Config) primaryModel() config.Model {
	return config.LLaMA7B()
}

func quickModel() config.Model {
	return config.Model{Name: "Quick-Tiny", Hidden: 512, FFNHidden: 2048, Heads: 4, SeqLen: 512, Batch: 2, Layers: 4}
}

// e2eHW is the hardware used for end-to-end sweeps: coarser request
// granularity keeps full-model event counts tractable (DESIGN.md §1).
func (c Config) e2eHW() config.Hardware {
	hw := c.HW
	if !c.Quick && hw.RequestBytes < 32<<10 {
		hw.RequestBytes = 32 << 10
	}
	return hw
}

// microHW is the hardware for the merging/bandwidth microstudies: finer
// request granularity for merge-table fidelity.
func (c Config) microHW() config.Hardware {
	hw := c.HW
	if !c.Quick {
		hw.RequestBytes = 8 << 10
	}
	return hw
}

// microModels returns the models for the microstudies: the real models at
// full fidelity, only the primary one in quick mode.
func (c Config) microModels() []config.Model {
	if c.Quick {
		return []config.Model{c.primaryModel()}
	}
	return config.TableIModels()
}

// Runner produces one experiment's rendered output.
type Runner func(c Config) (string, error)

// Registry maps experiment IDs to their drivers.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1": func(c Config) (string, error) { return Table1(), nil },
		"fig2":   rendered(Fig2),
		"fig10":  rendered(Fig10),
		"fig11":  rendered(Fig11),
		"fig12":  rendered(Fig12),
		"fig13a": rendered(Fig13a),
		"fig13b": rendered(Fig13b),
		"fig14":  rendered(Fig14),
		"fig15":  rendered(Fig15),
		"fig16":  rendered(Fig16),
		"fig17":  rendered(Fig17),
		"fig18":  rendered(Fig18),
		"table2": rendered(Table2),
		"area":   func(c Config) (string, error) { return Area(), nil },

		// Fault-injection degradation study (DESIGN.md §8).
		"resilience": rendered(Resilience),

		// Request-level serving workload study (DESIGN.md §13).
		"serving": rendered(Serving),

		// Design-choice ablations beyond the paper's figures.
		"ablation-eviction":    rendered(AblationEviction),
		"ablation-sideband":    rendered(AblationSideband),
		"ablation-granularity": rendered(AblationGranularity),
	}
}

// rendered adapts a driver to a Runner: the driver's result, rendered.
func rendered[R interface{ Render() string }](driver func(Config) (R, error)) Runner {
	return func(c Config) (string, error) {
		r, err := driver(c)
		if err != nil {
			return "", err
		}
		return r.Render(), nil
	}
}

// Names lists registered experiment IDs in stable order.
func Names() []string {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Run executes one experiment by ID.
func Run(id string, c Config) (string, error) {
	r, ok := Registry()[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	return r(c)
}

// mapPoints fans n independent simulation points out on the configured
// worker pool, collecting results by index. Each point must build its own
// engine/machine (strategy.Run* always does); the fold back into rows,
// maps and geomeans happens sequentially in the caller, in index order, so
// output bytes do not depend on Workers.
func mapPoints[T any](c Config, n int, fn func(i int) (T, error)) ([]T, error) {
	return sweep.Map(n, c.Workers, fn)
}

// grid is mapPoints over a rows × cols sweep: every (row, col) cell is its
// own point, in row-major order, and the results come back by [row][col]
// for the caller's sequential fold.
func grid[R, C, T any](c Config, rows []R, cols []C, fn func(r R, col C) (T, error)) ([][]T, error) {
	flat, err := mapPoints(c, len(rows)*len(cols), func(i int) (T, error) {
		return fn(rows[i/len(cols)], cols[i%len(cols)])
	})
	if err != nil {
		return nil, err
	}
	out := make([][]T, len(rows))
	for i := range out {
		out[i] = flat[i*len(cols) : (i+1)*len(cols)]
	}
	return out, nil
}

func ms(t sim.Time) float64 { return t.Milliseconds() }
