// Package experiments reproduces every table and figure in the paper's
// evaluation (§5) plus the §2 background analysis, mapping each onto the
// simulation substrate. The cmd/ tools and the top-level benchmarks are
// thin wrappers over this package; see DESIGN.md for the experiment index.
//
// This package owns no cell construction: the paper's evaluation grid is a
// set of registered scenarios (internal/scenario), and the figures and the
// background and overhead analyses are ad-hoc scenario specs, so every
// simulation here enters through scenario.RunBatch.
package experiments

import (
	"context"
	"fmt"

	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/trace"
)

// BufferNames lists the five evaluated buffers in the paper's column order.
var BufferNames = scenario.PaperBuffers

// ExtendedBufferNames is every buffer preset the scenario layer can
// construct: the paper's five plus the related-work extensions.
var ExtendedBufferNames = scenario.PresetBuffers

// BenchmarkNames lists the four benchmarks in presentation order.
var BenchmarkNames = scenario.PaperBenchmarks

// Options tunes a run; the zero value uses the evaluation defaults.
type Options = scenario.RunOptions

// seed resolves the trace/event seed. Every spec here is seedless, so an
// unset seed means 1, exactly as the scenario layer resolves it.
func seed(o Options) uint64 {
	if o.Seed == 0 {
		return 1
	}
	return o.Seed
}

// RunCell simulates one (trace × buffer × benchmark) cell of the
// evaluation grid through the scenario layer, with the trace supplied
// directly (the grid shares one materialized trace across its cells).
func RunCell(tr *trace.Trace, bufName, bench string, opt Options) (sim.Result, error) {
	sp := scenario.Spec{
		Name:     "adhoc-cell",
		Trace:    scenario.TraceSpec{Loaded: tr},
		Workload: scenario.WorkloadSpec{Bench: bench},
		Buffers:  scenario.Presets(bufName),
	}
	return sp.Cell(0, opt)
}

// Grid is the dense evaluation-grid result store (benchmark × trace ×
// buffer), shared with every other grid-shaped driver via internal/runner.
type Grid = runner.Grid

// RunGrid executes the complete evaluation (4 benchmarks × 5 traces × 5
// buffers) over the default worker pool and returns the populated grid.
func RunGrid(opt Options) (*Grid, error) {
	return RunGridOn(context.Background(), nil, opt)
}

// RunGridOn is RunGrid with an explicit context and runner, for callers
// that need cancellation, a bounded pool, or progress reporting. The grid
// cells are the registered paper scenarios: each (benchmark × trace) pair
// resolves through the scenario registry, so the paper's evaluation and
// the extended catalogue run through one definition of each cell. Each
// (benchmark × trace) group runs its five buffers in lockstep over a
// single pass of the shared trace (scenario.RunBatch).
func RunGridOn(ctx context.Context, r *runner.Runner, opt Options) (*Grid, error) {
	traces := trace.Evaluation(seed(opt))
	return runner.RunGrid(ctx, r, BenchmarkNames, traces, BufferNames,
		func(ctx context.Context, bench string, tr *trace.Trace, buffers []string) ([]sim.Result, error) {
			sp, ok := scenario.Lookup(scenario.PaperName(bench, tr.Name))
			if !ok {
				return nil, fmt.Errorf("paper scenario %q not registered", scenario.PaperName(bench, tr.Name))
			}
			// The grid shares each materialized trace across its 20 cells;
			// feed it to the spec (Lookup returns a clone) instead of
			// re-running the synthetic generator once per cell.
			sp.Trace = scenario.TraceSpec{Loaded: tr}
			items := make([]scenario.BatchItem, len(buffers))
			for i, name := range buffers {
				idx := -1
				for j, bs := range sp.Buffers {
					if bs.DisplayName() == name {
						idx = j
						break
					}
				}
				if idx < 0 {
					return nil, fmt.Errorf("scenario %s: no buffer %q", sp.Name, name)
				}
				items[i] = scenario.BatchItem{Spec: sp, Buffer: idx}
			}
			return scenario.RunBatch(items, opt, nil)
		})
}

// Perf returns the figure of merit for one result: completed blocks (DE),
// successful samples (SC), successful transmissions (RT), and forwarded
// traffic rx+tx (PF).
func Perf(bench string, r sim.Result) float64 {
	switch bench {
	case "DE":
		return r.Metrics["blocks"]
	case "SC":
		return r.Metrics["samples"]
	case "RT":
		return r.Metrics["tx"]
	case "PF":
		return r.Metrics["rx"] + r.Metrics["tx"]
	}
	return 0
}
