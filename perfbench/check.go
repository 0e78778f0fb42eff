package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"

	"react/internal/buffer"
	"react/internal/experiments"
	"react/internal/runner"
	"react/internal/scenario"
	"react/internal/service"
	"react/internal/sim"
	"react/internal/trace"
)

// The correctness gate. A failed check fails the run (exit 1) instead of
// becoming a metric:
//
//   - every cell of every workload has finite figures and an energy
//     balance error of at most balanceTol;
//   - paper-grid equals the committed paper-* golden files within
//     goldenTol and reproduces the four Figure 7 gains;
//   - on reactd-miss, a seeded sample of served results is
//     bit-identical to a local scenario.RunBatch of the same cells,
//     computed after the timed phase.

const (
	balanceTol = 1e-9
	goldenTol  = 1e-9
	// gainTol is the Figure 7 tolerance in percentage points: the
	// recorded gains carry four significant digits.
	gainTol = 0.01
)

// figure7Gains are REACT's recorded Figure 7 gains (percent) at seed 1.
var figure7Gains = map[string]float64{"770 µF": 56.41, "10 mF": 9.412, "17 mF": 6.053, "Morphy": 12.90}

// cellFigures is the part of a result every check compares; it is shared
// by local results (sim.Result) and served ones (service.CellResult).
type cellFigures struct {
	Latency, OnTime, Duration, MeanCycle, Stored, InitialStored float64
	Cycles                                                      int
	Metrics                                                     map[string]float64
	Ledger                                                      buffer.Ledger
	Balance                                                     float64
}

func fromSim(r sim.Result) cellFigures {
	return cellFigures{r.Latency, r.OnTime, r.Duration, r.MeanCycle, r.Stored, r.InitialStored,
		r.Cycles, r.Metrics, r.Ledger, r.EnergyBalanceError()}
}

func fromWire(c *service.CellResult) cellFigures {
	return cellFigures{c.Latency, c.OnTime, c.Duration, c.MeanCycle, c.Stored, c.InitialStored,
		c.Cycles, c.Metrics, c.Ledger, c.BalanceError}
}

// floats lists every floating-point figure with its name.
func (c cellFigures) floats() map[string]float64 {
	m := map[string]float64{
		"latency": c.Latency, "on_time": c.OnTime, "duration": c.Duration, "mean_cycle": c.MeanCycle,
		"stored": c.Stored, "initial_stored": c.InitialStored, "energy_balance_error": c.Balance,
		"ledger.harvested": c.Ledger.Harvested, "ledger.consumed": c.Ledger.Consumed,
		"ledger.clipped": c.Ledger.Clipped, "ledger.leaked": c.Ledger.Leaked,
		"ledger.switch_loss": c.Ledger.SwitchLoss, "ledger.overhead": c.Ledger.Overhead,
	}
	for k, v := range c.Metrics {
		m["metrics."+k] = v
	}
	return m
}

// checkCell enforces the invariants every cell must satisfy.
func checkCell(label string, c cellFigures) error {
	for k, v := range c.floats() {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return checkf("%s: %s is %v", label, k, v)
		}
	}
	if c.Balance > balanceTol {
		return checkf("%s: energy balance error %.3g > %g", label, c.Balance, balanceTol)
	}
	return nil
}

// sameCell reports whether a served result is bit-identical to a local one.
func sameCell(label string, got, want cellFigures) error {
	if got.Cycles != want.Cycles || len(got.Metrics) != len(want.Metrics) {
		return checkf("%s: served cycles/metrics %d/%d, local %d/%d", label, got.Cycles, len(got.Metrics), want.Cycles, len(want.Metrics))
	}
	wf := want.floats()
	for k, g := range got.floats() {
		w, ok := wf[k]
		if !ok || math.Float64bits(g) != math.Float64bits(w) {
			return checkf("%s: served %s %.17g, local %.17g", label, k, g, w)
		}
	}
	return nil
}

// goldenCell mirrors one buffer entry of a committed golden file.
type goldenCell struct {
	Latency   float64            `json:"latency_s"`
	OnTime    float64            `json:"on_time_s"`
	Duration  float64            `json:"duration_s"`
	Cycles    int                `json:"cycles"`
	MeanCycle float64            `json:"mean_cycle_s"`
	Stored    float64            `json:"stored_j"`
	Ledger    buffer.Ledger      `json:"ledger"`
	Metrics   map[string]float64 `json:"metrics"`
}

// near is the golden comparison: relative for large values, absolute
// below 1, as the repository's golden suite compares.
func near(a, b float64) bool {
	scale := math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
	return math.Abs(a-b) <= goldenTol*scale
}

// checkGolden compares one paper scenario's results with its golden file.
func checkGolden(root string, spec *scenario.Spec, res []sim.Result) error {
	path := filepath.Join(root, "internal", "scenario", "testdata", "golden", spec.Name+".json")
	data, err := os.ReadFile(path)
	if err != nil {
		return checkf("reading golden: %v", err)
	}
	var g struct {
		Seed    uint64                `json:"seed"`
		Buffers map[string]goldenCell `json:"buffers"`
	}
	if err := json.Unmarshal(data, &g); err != nil {
		return checkf("%s: %v", path, err)
	}
	if g.Seed != 1 || len(g.Buffers) != len(res) {
		return checkf("%s: golden seed %d with %d buffers, want seed 1 with %d", path, g.Seed, len(g.Buffers), len(res))
	}
	for i, r := range res {
		label := spec.Name + "/" + spec.Buffers[i].DisplayName()
		w, ok := g.Buffers[spec.Buffers[i].DisplayName()]
		if !ok {
			return checkf("%s: no golden entry", label)
		}
		want := cellFigures{Latency: w.Latency, OnTime: w.OnTime, Duration: w.Duration, MeanCycle: w.MeanCycle,
			Stored: w.Stored, Cycles: w.Cycles, Metrics: w.Metrics, Ledger: w.Ledger}
		got := fromSim(r)
		got.InitialStored, got.Balance = 0, 0 // not recorded in the goldens
		if got.Cycles != want.Cycles || len(got.Metrics) != len(want.Metrics) {
			return checkf("%s: cycles/metrics %d/%d, golden %d/%d", label, got.Cycles, len(got.Metrics), want.Cycles, len(want.Metrics))
		}
		wf := want.floats()
		for k, v := range got.floats() {
			if wv, ok := wf[k]; !ok || !near(v, wv) {
				return checkf("%s: %s %.17g, golden %.17g", label, k, v, wv)
			}
		}
	}
	return nil
}

// checkFigure7 puts the grid's results into the repository's own Figure 7
// grid, has experiments.ComputeFigure7 derive REACT's gains, and compares
// them with the recorded ones. grid maps scenario name to its results,
// index-parallel to experiments.BufferNames.
func checkFigure7(grid map[string][]sim.Result, traces []*trace.Trace) error {
	g := runner.NewGrid(experiments.BenchmarkNames, traces, experiments.BufferNames)
	for _, bench := range experiments.BenchmarkNames {
		for _, t := range traces {
			for i, buf := range experiments.BufferNames {
				g.Set(bench, t.Name, buf, grid[scenario.PaperName(bench, t.Name)][i])
			}
		}
	}
	f := experiments.ComputeFigure7(g)
	for buf, want := range figure7Gains {
		if got := 100 * f.Improvement[buf]; math.Abs(got-want) > gainTol {
			return checkf("Figure 7 gain over %s: %.4f%%, recorded %.4g%%", buf, got, want)
		}
	}
	return nil
}
