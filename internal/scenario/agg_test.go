package scenario_test

import (
	"math"
	"reflect"
	"testing"

	"react/internal/scenario"
	"react/internal/sim"
)

func TestAggregateSeeds(t *testing.T) {
	results := []sim.Result{
		{Latency: 2, OnTime: 5, Duration: 10, Metrics: map[string]float64{"blocks": 4}},
		{Latency: 4, OnTime: 2, Duration: 10, Metrics: map[string]float64{"blocks": 8}},
		{Latency: -1, OnTime: 0, Duration: 10, Metrics: map[string]float64{"blocks": 0}},
	}
	s := scenario.AggregateSeeds(results)
	if s.Seeds != 3 || s.Started != 2 {
		t.Fatalf("seeds %d started %d, want 3 and 2", s.Seeds, s.Started)
	}
	// Latency covers only the started runs: mean 3, population std 1.
	if s.Latency.Mean != 3 || s.Latency.Std != 1 {
		t.Errorf("latency %+v, want mean 3 std 1", s.Latency)
	}
	// Duty covers every run: (0.5 + 0.2 + 0) / 3.
	if math.Abs(s.Duty.Mean-0.7/3) > 1e-15 {
		t.Errorf("duty mean %g, want %g", s.Duty.Mean, 0.7/3)
	}
	if m := s.Metrics["blocks"]; m.Mean != 4 {
		t.Errorf("blocks mean %g, want 4", m.Mean)
	}
}

// TestAggregateSeedsSingleResult pins the n=1 corner: a population of one
// has zero spread, and the mean is the value itself — no NaN from the
// variance subtraction.
func TestAggregateSeedsSingleResult(t *testing.T) {
	s := scenario.AggregateSeeds([]sim.Result{
		{Latency: 0.37, OnTime: 6, Duration: 10, Metrics: map[string]float64{"blocks": 41}},
	})
	if s.Seeds != 1 || s.Started != 1 {
		t.Fatalf("seeds %d started %d, want 1 and 1", s.Seeds, s.Started)
	}
	for label, ms := range map[string]scenario.MeanStd{
		"latency": s.Latency, "duty": s.Duty, "blocks": s.Metrics["blocks"],
	} {
		if math.IsNaN(ms.Mean) || math.IsNaN(ms.Std) {
			t.Errorf("%s: NaN in %+v", label, ms)
		}
		if ms.Std != 0 {
			t.Errorf("%s: std %g over a single result, want exactly 0", label, ms.Std)
		}
	}
	if s.Latency.Mean != 0.37 || s.Metrics["blocks"].Mean != 41 {
		t.Errorf("single-result means wrong: %+v", s)
	}
}

// TestAggregateSeedsOrderInvariant pins determinism under shuffled result
// order: the summary depends only on the multiset of per-seed results, not
// on the order the caller assembled them in (meanStd accumulates in sorted
// order, so even floating-point rounding cannot differ).
func TestAggregateSeedsOrderInvariant(t *testing.T) {
	mk := func(perm []int) []sim.Result {
		// Values chosen to exercise rounding: their FP sums genuinely
		// depend on accumulation order without the sort.
		lat := []float64{0.1, 1e9, 0.3, -1, 7e-8}
		blocks := []float64{1e16, 3, 1e-3, 2.5, 1e16}
		out := make([]sim.Result, len(perm))
		for i, p := range perm {
			out[i] = sim.Result{
				Latency: lat[p], OnTime: float64(p), Duration: 10,
				Metrics: map[string]float64{"blocks": blocks[p]},
			}
		}
		return out
	}
	ref := scenario.AggregateSeeds(mk([]int{0, 1, 2, 3, 4}))
	for _, perm := range [][]int{
		{4, 3, 2, 1, 0},
		{2, 0, 4, 1, 3},
		{1, 4, 0, 3, 2},
	} {
		if got := scenario.AggregateSeeds(mk(perm)); !reflect.DeepEqual(got, ref) {
			t.Errorf("order %v: summary diverged:\n got %+v\nwant %+v", perm, got, ref)
		}
	}
}

func TestAggregateSeedsDegenerate(t *testing.T) {
	if s := scenario.AggregateSeeds(nil); s.Seeds != 0 || s.Started != 0 {
		t.Errorf("empty aggregation not zero: %+v", s)
	}
	// No seed ever started: the latency statistic stays the zero value
	// rather than dividing by zero.
	s := scenario.AggregateSeeds([]sim.Result{{Latency: -1, Duration: 1, Metrics: map[string]float64{}}})
	if s.Started != 0 || s.Latency.Mean != 0 || s.Latency.Std != 0 {
		t.Errorf("never-started aggregation wrong: %+v", s)
	}
}

func TestValidateRejectsNonFiniteTiming(t *testing.T) {
	for label, mutate := range map[string]func(*scenario.Spec){
		"NaN dt":       func(s *scenario.Spec) { s.DT = math.NaN() },
		"Inf dt":       func(s *scenario.Spec) { s.DT = math.Inf(1) },
		"NaN tail cap": func(s *scenario.Spec) { s.TailCap = math.NaN() },
		"Inf tail cap": func(s *scenario.Spec) { s.TailCap = math.Inf(1) },
		"negative dt":  func(s *scenario.Spec) { s.DT = -1 },
	} {
		s := fpSpec()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate must reject it", label)
		}
	}
	if err := fpSpec().Validate(); err != nil {
		t.Fatalf("the base spec must validate: %v", err)
	}
}

func TestRunOptionsValidate(t *testing.T) {
	for label, opt := range map[string]scenario.RunOptions{
		"NaN dt":      {DT: math.NaN()},
		"Inf dt":      {DT: math.Inf(1)},
		"negative dt": {DT: -1e-3},
	} {
		if err := opt.Validate(); err == nil {
			t.Errorf("%s: Validate must reject it", label)
		}
		// And the guard holds at the simulation chokepoint: a bad option
		// never reaches sim.Run.
		if _, err := fpSpec().Cell(0, opt); err == nil {
			t.Errorf("%s: Cell must reject it", label)
		}
	}
	if err := (scenario.RunOptions{Seed: 5, DT: 2e-3}).Validate(); err != nil {
		t.Errorf("well-formed options rejected: %v", err)
	}
}
