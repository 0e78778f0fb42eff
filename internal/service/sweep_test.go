package service

import (
	"context"
	"encoding/json"
	"reflect"
	"testing"

	"react/internal/scenario"
	"react/internal/sim"
)

// pfSpec has per-seed event randomness (PF arrivals), so a seed sweep has
// real across-seed variance to aggregate.
const pfSpec = `{
	"name": "svc-pf",
	"trace": {"gen": "steady", "mean": 0.01, "duration": 60},
	"workload": {"bench": "PF", "interarrival": 4},
	"buffers": [{"preset": "770 µF"}, {"preset": "REACT"}]
}`

// TestSweepMatchesLocalSeedSweep is the wire-fidelity acceptance check: a
// remote sweep's per-cell results and summary rows must be bit-identical
// to simulating the same spec and seeds locally and aggregating with
// scenario.AggregateSeeds — the code `reactsim -seeds` reports through.
func TestSweepMatchesLocalSeedSweep(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	seeds := []uint64{1, 2, 3, 4}
	st, err := c.Sweep(ctx, SweepRequest{Spec: json.RawMessage(pfSpec), Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cells) != 8 || len(st.Summary) != 2 {
		t.Fatalf("sweep shape: %d cells %d summary rows, want 8 and 2", len(st.Cells), len(st.Summary))
	}

	spec, err := scenario.ParseSpec([]byte(pfSpec))
	if err != nil {
		t.Fatal(err)
	}
	for bi, bs := range spec.Buffers {
		name := bs.DisplayName()
		results := make([]sim.Result, len(seeds))
		for si, seed := range seeds {
			res, err := spec.Cell(bi, scenario.RunOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			results[si] = res
			// The wire cell for this (buffer, seed) carries the local
			// run's exact numbers.
			var wire *CellResult
			for _, cell := range st.Cells {
				if cell.Buffer == name && cell.Seed == seed {
					wire = cell.Result
				}
			}
			if wire == nil {
				t.Fatalf("no wire cell for %s seed %d", name, seed)
			}
			if wire.Latency != res.Latency || wire.OnTime != res.OnTime || wire.Metrics["fwd"] != res.Metrics["fwd"] {
				t.Errorf("%s seed %d: wire result diverged from the local cell", name, seed)
			}
		}
		want := scenario.AggregateSeeds(results)
		row, ok := st.Row(name, 0)
		if !ok {
			t.Fatalf("no summary row for %s", name)
		}
		if !reflect.DeepEqual(row.SeedSummary, want) {
			t.Errorf("%s: summary diverged from the local aggregation:\n got %+v\nwant %+v", name, row.SeedSummary, want)
		}
	}
}

// TestSweepBatchesOneTracePassPerSeed pins the batched fan-out: a sweep
// of S seeds over K buffers groups the K cells that share each
// (trace, seed, dt) into one lockstep batch, so the executor walks the
// trace S times — not S×K — and the /metrics counters make that visible.
func TestSweepBatchesOneTracePassPerSeed(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	seeds := []uint64{1, 2, 3}
	st, err := c.Sweep(ctx, SweepRequest{Spec: json.RawMessage(pfSpec), Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cells) != 6 { // 3 seeds × 2 buffers
		t.Fatalf("sweep ran %d cells, want 6", len(st.Cells))
	}
	m := readMetrics(t, c)
	if m("trace_passes") != float64(len(seeds)) {
		t.Errorf("trace passes = %v, want %v: each seed's cells must share one lockstep pass", m("trace_passes"), len(seeds))
	}
	if m("ticks_simulated") == 0 {
		t.Error("ticks_simulated stayed zero across a six-cell sweep")
	}
	if m("sims_completed") != 6 {
		t.Errorf("sims completed = %v, want 6 (every cell still retires its own result)", m("sims_completed"))
	}
}

// TestSweepThenRunPerformsZeroNewSimulations is the issue's acceptance
// criterion on the paper grid: after a seed sweep that included seed 1,
// submitting the scenario as a plain run touches only cached cells —
// metrics show cell hits, and misses stay unchanged.
func TestSweepThenRunPerformsZeroNewSimulations(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps a full paper-grid scenario")
	}
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	sw, err := c.Sweep(ctx, SweepRequest{Scenario: "paper-de-rf-cart", SeedFrom: 1, SeedTo: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sw.Cells) != 10 { // 5 paper buffers × 2 seeds
		t.Fatalf("sweep ran %d cells, want 10", len(sw.Cells))
	}
	m0 := readMetrics(t, c)

	st, err := c.Run(ctx, RunRequest{Scenario: "paper-de-rf-cart"})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone || st.Seed != 1 {
		t.Fatalf("run after sweep: %+v", st)
	}
	m1 := readMetrics(t, c)
	if m1("cell_misses") != m0("cell_misses") {
		t.Errorf("cell misses went %v -> %v: the run re-simulated sweep cells", m0("cell_misses"), m1("cell_misses"))
	}
	if m1("cell_hits") != m0("cell_hits")+5 {
		t.Errorf("cell hits went %v -> %v, want +5", m0("cell_hits"), m1("cell_hits"))
	}
	if m1("sims_completed") != m0("sims_completed") {
		t.Errorf("simulations went %v -> %v, want zero new work", m0("sims_completed"), m1("sims_completed"))
	}
	// And the run's per-buffer results are exactly the sweep's seed-1 cells.
	for _, cell := range st.Cells {
		var fromSweep *CellResult
		for _, sc := range sw.Cells {
			if sc.Buffer == cell.Buffer && sc.Seed == 1 {
				fromSweep = sc.Result
			}
		}
		if fromSweep == nil || cell.Result == nil || cell.Result.Latency != fromSweep.Latency {
			t.Errorf("%s: run result is not the sweep's seed-1 cell", cell.Buffer)
		}
	}
}

// TestSweepDTAxisAndBufferSubset covers the two optional axes: an explicit
// timestep axis (0 meaning the spec default) crossed with a buffer subset,
// with one summary row per (buffer, dt) group, and default-dt cells shared
// with plain runs.
func TestSweepDTAxisAndBufferSubset(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	// A plain run first: the sweep's dt-0 axis must reuse its cells.
	if _, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)}); err != nil {
		t.Fatal(err)
	}
	st, err := c.Sweep(ctx, SweepRequest{
		Spec:    json.RawMessage(fastSpec),
		Seeds:   []uint64{1, 2},
		DTs:     []float64{0, 2e-3},
		Buffers: []string{"REACT"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cells) != 4 { // 1 buffer × 2 dts × 2 seeds
		t.Fatalf("%d cells, want 4", len(st.Cells))
	}
	if !reflect.DeepEqual(st.Seeds, []uint64{1, 2}) || !reflect.DeepEqual(st.DTs, []float64{1e-3, 2e-3}) {
		t.Errorf("resolved axes wrong: seeds %v dts %v", st.Seeds, st.DTs)
	}
	if !reflect.DeepEqual(st.Buffers, []string{"REACT"}) {
		t.Errorf("buffer subset wrong: %v", st.Buffers)
	}
	if len(st.Summary) != 2 {
		t.Fatalf("%d summary rows, want one per (buffer, dt)", len(st.Summary))
	}
	for _, row := range st.Summary {
		if row.Buffer != "REACT" || row.Seeds != 2 {
			t.Errorf("summary row wrong: %+v", row)
		}
	}
	// The (REACT, default dt, seed 1) cell was simulated by the plain run.
	if st.CachedCells < 1 {
		t.Errorf("the dt-0 seed-1 cell should have been a cache hit: cached %d", st.CachedCells)
	}
}

// TestSweepAxisValidation covers ResolveSweepAxes' rejections.
func TestSweepAxisValidation(t *testing.T) {
	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	bad := map[string]SweepRequest{
		"both seed forms":  {Seeds: []uint64{1}, SeedTo: 3},
		"zero seed":        {Seeds: []uint64{1, 0}},
		"empty range":      {SeedFrom: 5, SeedTo: 2},
		"from without to":  {SeedFrom: 3},
		"oversized range":  {SeedFrom: 1, SeedTo: 10000},
		"unknown buffer":   {Buffers: []string{"not-a-buffer"}},
		"negative dt":      {DTs: []float64{-1e-3}},
		"oversized cross":  {SeedFrom: 1, SeedTo: 3000, DTs: []float64{1e-3, 2e-3}},
		"duplicate seed":   {Seeds: []uint64{1, 2, 1}},
		"duplicate buffer": {Buffers: []string{"REACT", "REACT"}},
		// 0 resolves to the spec's default (1 ms here), colliding with the
		// spelled-out value: one axis point, two identical summary rows.
		"duplicate dt after resolution": {DTs: []float64{0, 1e-3}},
	}
	for label, req := range bad {
		if _, err := ResolveSweepAxes(spec, &req); err == nil {
			t.Errorf("%s: must be rejected", label)
		}
	}
	// Defaults resolve: no axes means the spec's one resolved point.
	ax, err := ResolveSweepAxes(spec, &SweepRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ax.Seeds, []uint64{1}) || !reflect.DeepEqual(ax.DTs, []float64{1e-3}) || len(ax.Buffers) != 2 {
		t.Errorf("default axes wrong: %+v", ax)
	}
}

// TestSweepCancel pins cancellation: queued cells drain without
// simulating, the sweep reports canceled, and the addresses are freshly
// simulable afterwards.
func TestSweepCancel(t *testing.T) {
	srv, c := newTestService(t, Config{Workers: 1})
	ctx := context.Background()
	started := make(chan int, 4)
	release := make(chan struct{})
	unblock := mustUnblock(t, release)
	blocker := srv.Submit(blockerSpec(started, release), scenario.RunOptions{})
	<-started

	sw, err := c.SweepAsync(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	unblock()
	final, err := sw.Wait(ctx)
	if err == nil || final.Status != StatusCanceled {
		t.Fatalf("want a canceled sweep, got status %q err %v", final.Status, err)
	}
	if len(final.Summary) != 0 {
		t.Error("a cancelled sweep must not publish summary rows")
	}
	// The blocker run's cell counts toward the server-wide queue depth
	// until it completes, which may trail the cancelled sweep's finish.
	if _, err := (&RemoteRun{c: c, ID: blocker.ID}).Wait(ctx); err != nil {
		t.Fatal(err)
	}
	m := readMetrics(t, c)
	if m("queue_depth") != 0 {
		t.Errorf("queue depth %v after a cancelled sweep drained, want 0", m("queue_depth"))
	}
	// The cancelled addresses left the index: a fresh run re-simulates.
	st, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone {
		t.Fatalf("post-cancel run: %+v", st)
	}
}
