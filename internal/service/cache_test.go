package service

import (
	"context"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"react/internal/scenario"
)

// This file is the cache-boundary suite for the cell-granular store:
// eviction at exactly the configured capacities, DELETE of views whose
// cells are shared with live work, and the coalescing race where
// overlapping submissions must collapse to one simulation per cell.

// fastSpec3 is fastSpec with a third buffer, for overlap tests.
const fastSpec3 = `{
	"name": "svc-fast3",
	"trace": {"gen": "steady", "mean": 0.01, "duration": 30},
	"workload": {"bench": "DE"},
	"buffers": [{"preset": "770 µF"}, {"preset": "10 mF"}, {"preset": "REACT"}]
}`

// blockerSpec returns a one-cell unfingerprintable spec whose only buffer
// pins a worker inside its constructor until release — the deterministic
// way to keep later submissions queued.
func blockerSpec(started chan<- int, release <-chan struct{}) *scenario.Spec {
	s := blockingSpec(2, started, release)
	s.Buffers = s.Buffers[1:] // drop the preset; keep only the blocker
	return s
}

// TestCellEvictionAtExactCapacity pins the cell-LRU bound: a cache filled
// to exactly CacheCells evicts nothing, one cell past it evicts the least
// recently used, and evicted addresses re-simulate on resubmission.
func TestCellEvictionAtExactCapacity(t *testing.T) {
	_, c := newTestService(t, Config{CacheCells: 2})
	ctx := context.Background()
	if _, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)}); err != nil {
		t.Fatal(err)
	}
	m := readMetrics(t, c)
	if m("cell_entries") != 2 || m("cell_evictions") != 0 {
		t.Fatalf("at exact capacity: entries %v evictions %v, want 2 and 0", m("cell_entries"), m("cell_evictions"))
	}
	// Two fresh addresses displace both cached cells.
	b := strings.Replace(fastSpec, `"duration": 30`, `"duration": 31`, 1)
	if _, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(b)}); err != nil {
		t.Fatal(err)
	}
	m = readMetrics(t, c)
	if m("cell_entries") != 2 || m("cell_evictions") != 2 {
		t.Errorf("past capacity: entries %v evictions %v, want 2 and 2", m("cell_entries"), m("cell_evictions"))
	}
	// Resubmitting the first run must miss on its evicted addresses and
	// simulate afresh.
	misses := m("cell_misses")
	st, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone {
		t.Fatalf("resubmission did not finish: %+v", st)
	}
	m = readMetrics(t, c)
	if m("cell_misses") != misses+2 {
		t.Errorf("cell misses went %v -> %v on an evicted resubmission, want +2", misses, m("cell_misses"))
	}
}

// TestDeleteRunningRunKeepsSweepSharedCells pins the refcounting: a run
// that coalesced onto a live sweep's in-flight cells is DELETEd, and the
// shared cells must keep simulating for the sweep.
func TestDeleteRunningRunKeepsSweepSharedCells(t *testing.T) {
	srv, c := newTestService(t, Config{Workers: 1})
	ctx := context.Background()
	started := make(chan int, 4)
	release := make(chan struct{})
	unblock := mustUnblock(t, release)
	srv.Submit(blockerSpec(started, release), scenario.RunOptions{})
	<-started // the blocker owns the only worker; everything below queues

	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	ax, err := ResolveSweepAxes(spec, &SweepRequest{Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sweep := srv.SubmitSweep(spec, ax)
	if sweep.NewCells != 4 {
		t.Fatalf("sweep scheduled %d fresh cells, want 4", sweep.NewCells)
	}

	// A plain run of the same spec coalesces per cell onto the sweep's
	// seed-1 cells.
	run := srv.Submit(spec.Clone(), scenario.RunOptions{})
	if !run.Coalesced {
		t.Fatalf("overlapping run did not coalesce: %+v", run)
	}
	// DELETE the run mid-flight: the shared cells are still wanted by the
	// live sweep and must survive.
	rr := &RemoteRun{c: c, ID: run.ID}
	if err := rr.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	unblock()

	final, err := (&RemoteSweep{c: c, ID: sweep.ID}).Wait(ctx)
	if err != nil {
		t.Fatalf("the sweep must survive the shared run's deletion: %v", err)
	}
	for _, cell := range final.Cells {
		if !cell.Done || cell.Error != "" || cell.Result == nil {
			t.Fatalf("sweep cell lost to the run's cancellation: %+v", cell)
		}
	}
	m := readMetrics(t, c)
	if want := 5.0; m("sims_completed") != want { // 1 blocker + 4 sweep cells
		t.Errorf("%v simulations, want %v (the deleted run must add none, the sweep must lose none)", m("sims_completed"), want)
	}
}

// TestDeleteFinishedRunKeepsSweepSharedCells pins the forget path: DELETE
// of a completed run drops its cached cells — except ones a live sweep is
// holding, which must survive and serve later submissions.
func TestDeleteFinishedRunKeepsSweepSharedCells(t *testing.T) {
	srv, c := newTestService(t, Config{Workers: 1})
	ctx := context.Background()
	run, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}

	started := make(chan int, 4)
	release := make(chan struct{})
	unblock := mustUnblock(t, release)
	srv.Submit(blockerSpec(started, release), scenario.RunOptions{})
	<-started

	// The sweep's seed-1 cells are cache hits on the finished run's cells;
	// its seed-2 cells queue behind the blocker, keeping the sweep live.
	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	ax, err := ResolveSweepAxes(spec, &SweepRequest{Seeds: []uint64{1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	sweep := srv.SubmitSweep(spec, ax)
	if sweep.CachedCells != 2 || sweep.NewCells != 2 {
		t.Fatalf("sweep cache disposition %d cached / %d new, want 2 / 2", sweep.CachedCells, sweep.NewCells)
	}

	if err := (&RemoteRun{c: c, ID: run.ID}).Cancel(ctx); err != nil { // DELETE the finished run
		t.Fatal(err)
	}
	// The shared cells survive the forget: a resubmission is still served
	// from the cache while the sweep lives.
	misses0 := readMetrics(t, c)
	again, err := c.RunAsync(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if !again.Submitted.Cached {
		t.Error("cells shared with a live sweep must survive the run's deletion")
	}
	m := readMetrics(t, c)
	if m("cell_misses") != misses0("cell_misses") {
		t.Errorf("cell misses went %v -> %v, want unchanged", misses0("cell_misses"), m("cell_misses"))
	}

	unblock()
	if _, err := (&RemoteSweep{c: c, ID: sweep.ID}).Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestCoalescingRaceOneSimulationPerCell is the -race coalescing probe:
// many concurrent clients sweep overlapping buffer subsets of one spec,
// and every distinct cell must be simulated exactly once.
func TestCoalescingRaceOneSimulationPerCell(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	ctx := context.Background()
	subsets := [][]string{
		{"770 µF"}, {"10 mF"}, {"REACT"},
		{"770 µF", "10 mF"}, {"10 mF", "REACT"}, {"770 µF", "REACT"},
		{"770 µF", "10 mF", "REACT"},
	}
	const clients = 14
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs []error
		got  []*SweepStatus
	)
	for i := 0; i < clients; i++ {
		sub := subsets[i%len(subsets)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			st, err := c.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec3), Buffers: sub})
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
				return
			}
			got = append(got, st)
		}()
	}
	wg.Wait()
	if len(errs) > 0 {
		t.Fatalf("%d/%d clients failed, first: %v", len(errs), clients, errs[0])
	}

	// Every client that asked for a buffer saw the identical result.
	ref := map[string]float64{}
	for _, st := range got {
		for _, cell := range st.Cells {
			if cell.Result == nil {
				t.Fatalf("cell %s missing a result", cell.Buffer)
			}
			blocks := cell.Result.Metrics["blocks"]
			if prev, ok := ref[cell.Buffer]; ok && prev != blocks {
				t.Errorf("%s diverged across clients: %v vs %v", cell.Buffer, prev, blocks)
			}
			ref[cell.Buffer] = blocks
		}
	}

	m := readMetrics(t, c)
	if m("sims_completed") != 3 {
		t.Errorf("%v simulations for 3 distinct cells across %v overlapping sweeps, want exactly 3", m("sims_completed"), clients)
	}
	if m("cell_misses") != 3 {
		t.Errorf("%v cell misses, want 3 (single flight per address)", m("cell_misses"))
	}
	if m("queue_depth") != 0 {
		t.Errorf("queue depth %v after drain, want 0", m("queue_depth"))
	}
}

// TestDeleteFinishedSweepForgetsItsCells mirrors the run-forget contract
// at sweep granularity: once nothing live references the cells, DELETE
// drops them and a resubmission simulates afresh.
func TestDeleteFinishedSweepForgetsItsCells(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	st, err := c.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	rs := &RemoteSweep{c: c, ID: st.ID}
	if err := rs.Cancel(ctx); err != nil { // DELETE a finished sweep forgets it
		t.Fatal(err)
	}
	if _, err := rs.Poll(ctx); err == nil {
		t.Error("a deleted sweep must be forgotten")
	}
	again, err := c.RunAsync(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if again.Submitted.Cached {
		t.Error("the forgotten sweep's cells must not serve cache hits")
	}
	if _, err := (&RemoteRun{c: c, ID: again.Submitted.ID}).Wait(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestRunAndSweepNamespaces pins the path separation: a sweep id is not a
// run and vice versa.
func TestRunAndSweepNamespaces(t *testing.T) {
	_, c := newTestService(t, Config{})
	ctx := context.Background()
	sw, err := c.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(sw.ID, "s") {
		t.Errorf("sweep id %q should be s-prefixed", sw.ID)
	}
	if _, err := (&RemoteRun{c: c, ID: sw.ID}).Poll(ctx); err == nil {
		t.Error("GET /runs/{sweep-id} must 404")
	}
	run, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := (&RemoteSweep{c: c, ID: run.ID}).Poll(ctx); err == nil {
		t.Error("GET /sweeps/{run-id} must 404")
	}
}
