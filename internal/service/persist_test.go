package service

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"react/internal/store"
)

// openStore opens (or reopens) a test store on dir.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// sweepReq is the shared grid the persistence tests populate and re-read:
// 3 seeds × 2 buffers of fastSpec = 6 cells.
func sweepReq() SweepRequest {
	return SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1, 2, 3}}
}

// TestRestartServesGridFromDisk is the restart-persistence acceptance
// test: a sweep populates the disk tier, the daemon "restarts" (new
// Server, same store dir), and re-running the sweep serves the whole grid
// from disk — sims stay 0, and the summary rows are bit-identical.
func TestRestartServesGridFromDisk(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1 := openStore(t, dir)
	_, c1 := newTestService(t, Config{Workers: 2, Store: st1})
	before, err := c1.Sweep(ctx, sweepReq())
	if err != nil {
		t.Fatal(err)
	}
	m := readMetrics(t, c1)
	if m("sims_completed") != 6 || m("disk_puts") != 6 || m("disk_cells") != 6 {
		t.Fatalf("populate pass: sims %v, disk puts %v, disk cells %v; want 6 each", m("sims_completed"), m("disk_puts"), m("disk_cells"))
	}
	st1.Close()
	if st1.Len() != 6 {
		t.Fatalf("store holds %d cells, want 6", st1.Len())
	}

	// The restarted daemon: cold memory, warm disk.
	st2 := openStore(t, dir)
	_, c2 := newTestService(t, Config{Workers: 2, Store: st2})
	after, err := c2.Sweep(ctx, sweepReq())
	if err != nil {
		t.Fatal(err)
	}
	m = readMetrics(t, c2)
	if m("sims_completed") != 0 {
		t.Errorf("restarted daemon simulated %v cells, want 0", m("sims_completed"))
	}
	if m("disk_hits") != 6 || m("cell_hits") != 6 {
		t.Errorf("disk hits %v, cell hits %v; want 6 each", m("disk_hits"), m("cell_hits"))
	}
	if after.CachedCells != 6 || after.NewCells != 0 {
		t.Errorf("re-sweep disposition: %d cached, %d new; want 6, 0", after.CachedCells, after.NewCells)
	}

	// Bit-identical summaries: the disk round trip must not perturb a
	// single float.
	b, _ := json.Marshal(before.Summary)
	a, _ := json.Marshal(after.Summary)
	if string(a) != string(b) {
		t.Errorf("summaries diverged across the restart:\n%s\n%s", b, a)
	}
}

// corruptOneCell truncates one stored cell file, returning how many files
// it mangled (always 1).
func corruptOneCell(t *testing.T, dir string) {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "cells", "*", "*.json"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no cell files to corrupt: %v (%d)", err, len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(files[0], data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptCellQuarantinedAndResimulated: a truncated cell file is
// quarantined on read, the cell resimulates, and the server stays up —
// one corrupt file costs one sim, not an outage.
func TestCorruptCellQuarantinedAndResimulated(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()

	st1 := openStore(t, dir)
	_, c1 := newTestService(t, Config{Workers: 2, Store: st1})
	if _, err := c1.Sweep(ctx, sweepReq()); err != nil {
		t.Fatal(err)
	}
	st1.Close()
	corruptOneCell(t, dir)

	st2 := openStore(t, dir)
	_, c2 := newTestService(t, Config{Workers: 2, Store: st2})
	after, err := c2.Sweep(ctx, sweepReq())
	if err != nil {
		t.Fatal(err)
	}
	if after.Status != StatusDone {
		t.Fatalf("sweep over a corrupt store did not finish: %+v", after)
	}
	m := readMetrics(t, c2)
	if m("sims_completed") != 1 {
		t.Errorf("resimulated %v cells, want exactly the 1 corrupted", m("sims_completed"))
	}
	if m("disk_quarantined") != 1 || m("disk_hits") != 5 || m("disk_misses") != 1 {
		t.Errorf("quarantined %v, disk hits %v, misses %v; want 1, 5, 1", m("disk_quarantined"), m("disk_hits"), m("disk_misses"))
	}
	// The resimulated cell wrote back: the store is whole again.
	if st2.Len() != 6 {
		t.Errorf("store holds %d cells after repair, want 6", st2.Len())
	}
	q, _ := filepath.Glob(filepath.Join(dir, "quarantine", "*.json"))
	if len(q) != 1 {
		t.Errorf("quarantine holds %d files, want the 1 corrupt entry", len(q))
	}
}

// TestEvictionDemotesToDisk: LRU pressure drops a cell from memory but not
// from disk, and the next attachment of its address promotes it back
// without a simulation.
func TestEvictionDemotesToDisk(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir())
	_, c := newTestService(t, Config{Workers: 2, CacheCells: 1, Store: st})

	if _, err := c.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	m0 := readMetrics(t, c)
	if m0("sims_completed") != 4 || m0("cell_evictions") != 3 || m0("cell_entries") != 1 {
		t.Fatalf("populate pass: sims %v, evictions %v, entries %v; want 4, 3, 1", m0("sims_completed"), m0("cell_evictions"), m0("cell_entries"))
	}
	if st.Len() != 4 {
		t.Fatalf("store holds %d cells, want all 4 (eviction must demote, not delete)", st.Len())
	}

	// Re-sweeping finds every cell on disk (or, for at most the one
	// memory slot, still cached — which cell occupies it depends on
	// completion order, so only a lower bound is exact).
	if _, err := c.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	m1 := readMetrics(t, c)
	if m1("sims_completed") != m0("sims_completed") {
		t.Errorf("re-sweep simulated (%v -> %v sims); every cell was on disk or in memory", m0("sims_completed"), m1("sims_completed"))
	}
	if m1("disk_hits") < 3 || m1("disk_hits") > 4 {
		t.Errorf("disk hits %v, want 3 or 4 promoted cells", m1("disk_hits"))
	}
	if m1("cell_hits") != m0("cell_hits")+4 {
		t.Errorf("cell hits %v -> %v, want +4", m0("cell_hits"), m1("cell_hits"))
	}
}

// TestForgetDeletesDiskEntries: the explicit DELETE of a finished view
// removes its cells from the disk tier too — unlike an LRU demotion.
func TestForgetDeletesDiskEntries(t *testing.T) {
	ctx := context.Background()
	st := openStore(t, t.TempDir())
	_, c := newTestService(t, Config{Workers: 2, Store: st})

	rr, err := c.RunAsync(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rr.Wait(ctx); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 2 {
		t.Fatalf("store holds %d cells, want 2", st.Len())
	}
	if err := rr.Cancel(ctx); err != nil { // DELETE of a finished run = forget
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Errorf("store holds %d cells after forget, want 0", st.Len())
	}
}
