package runner

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"react/internal/buffer"
	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/sim"
	"react/internal/trace"
	"react/internal/workload"
)

func TestDoSequentialOrder(t *testing.T) {
	r := &Runner{Workers: 1}
	var order []int
	err := r.Do(context.Background(), 10, func(_ context.Context, i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("single worker ran out of order: %v", order)
		}
	}
}

func TestDoNilRunnerAndZeroJobs(t *testing.T) {
	var r *Runner
	var ran atomic.Int64 // the nil runner's jobs run concurrently
	if err := r.Do(context.Background(), 3, func(_ context.Context, i int) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 3 {
		t.Fatalf("nil runner ran %d of 3 jobs", n)
	}
	if err := r.Do(context.Background(), 0, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// TestDoErrorFirstByIndex: with several failing jobs, the reported error is
// the lowest-index failure regardless of worker count or completion order,
// and every job still runs.
func TestDoErrorFirstByIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		r := &Runner{Workers: workers}
		var ran atomic.Int32
		err := r.Do(context.Background(), 20, func(_ context.Context, i int) error {
			ran.Add(1)
			if i == 7 || i == 13 {
				return fmt.Errorf("job %d failed", i)
			}
			return nil
		})
		if err == nil || err.Error() != "job 7 failed" {
			t.Errorf("workers=%d: want first error by index, got %v", workers, err)
		}
		if ran.Load() != 20 {
			t.Errorf("workers=%d: a failure stopped the batch early: %d of 20 ran", workers, ran.Load())
		}
	}
}

// TestDoCancellation: cancelling the context mid-batch stops dispatch,
// returns ctx.Err(), and leaves the undispatched tail unrun.
func TestDoCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	r := &Runner{Workers: 1}
	var ran atomic.Int32
	err := r.Do(ctx, 1000, func(_ context.Context, i int) error {
		if i == 4 {
			cancel()
		}
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n >= 1000 || n < 5 {
		t.Fatalf("cancellation mid-grid should stop dispatch: %d of 1000 ran", n)
	}
}

func TestDoProgress(t *testing.T) {
	var events []Progress
	r := &Runner{Workers: 3, OnProgress: func(p Progress) { events = append(events, p) }}
	if err := r.Do(context.Background(), 12, func(_ context.Context, i int) error { return nil }); err != nil {
		t.Fatal(err)
	}
	if len(events) != 12 {
		t.Fatalf("want 12 progress events, got %d", len(events))
	}
	for i, p := range events {
		if p.Done != i+1 || p.Total != 12 {
			t.Fatalf("event %d: Done=%d Total=%d", i, p.Done, p.Total)
		}
	}
}

func TestGridIndexing(t *testing.T) {
	traces := []*trace.Trace{
		{Name: "t0", DT: 1, Power: []float64{1e-3}},
		{Name: "t1", DT: 1, Power: []float64{2e-3}},
	}
	g := NewGrid([]string{"A", "B", "C"}, traces, []string{"x", "y"})
	if g.Len() != 12 {
		t.Fatalf("Len = %d, want 12", g.Len())
	}
	for i := 0; i < g.Len(); i++ {
		bench, tr, buf := g.Cell(i)
		if got := g.Index(bench, tr.Name, buf); got != i {
			t.Fatalf("Cell/Index round trip: %d -> (%s,%s,%s) -> %d", i, bench, tr.Name, buf, got)
		}
	}
	g.Set("B", "t1", "y", sim.Result{Latency: 42})
	if got := g.At("B", "t1", "y").Latency; got != 42 {
		t.Fatalf("At after Set = %g", got)
	}
	seen := 0
	g.Each(func(bench string, tr *trace.Trace, buf string, r sim.Result) { seen++ })
	if seen != 12 {
		t.Fatalf("Each visited %d cells", seen)
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown axis name must panic")
		}
	}()
	g.At("A", "t0", "nope")
}

func TestSweepOrderAndError(t *testing.T) {
	vals, err := Sweep(context.Background(), nil, []int{10, 20, 30},
		func(_ context.Context, p int) (int, error) { return p * 2, nil })
	if err != nil {
		t.Fatal(err)
	}
	if vals[0] != 20 || vals[1] != 40 || vals[2] != 60 {
		t.Fatalf("sweep results out of order: %v", vals)
	}
	_, err = Sweep(context.Background(), nil, []int{1, 2},
		func(_ context.Context, p int) (int, error) {
			if p == 2 {
				return 0, errors.New("boom")
			}
			return p, nil
		})
	if err == nil || err.Error() != "boom" {
		t.Fatalf("sweep error not propagated: %v", err)
	}
}

func TestAxisHelpers(t *testing.T) {
	if s := Seeds(3); s[0] != 1 || s[2] != 3 {
		t.Errorf("Seeds(3) = %v", s)
	}
	lin := Linspace(0, 10, 5)
	if lin[0] != 0 || lin[4] != 10 || lin[2] != 5 {
		t.Errorf("Linspace = %v", lin)
	}
	log := Logspace(1e-3, 1, 4)
	if log[0] != 1e-3 || log[3] != 1 {
		t.Errorf("Logspace endpoints = %v", log)
	}
	if len(Linspace(1, 2, 1)) != 1 || len(Logspace(1, 2, 1)) != 1 {
		t.Error("single-point axis lengths")
	}
	if len(Linspace(1, 2, 0)) != 0 || len(Logspace(1, 2, -3)) != 0 {
		t.Error("empty axes must have no points")
	}
}

// simGroup builds a deterministic simulation group: one static buffer per
// buffer-axis name, sized by the name, driven by the group's trace, running
// DE.
func simGroup(_ context.Context, bench string, tr *trace.Trace, bufs []string) ([]sim.Result, error) {
	res := make([]sim.Result, len(bufs))
	for i, buf := range bufs {
		size, ok := map[string]float64{"small": 770e-6, "large": 10e-3}[buf]
		if !ok {
			return nil, fmt.Errorf("%s: no such buffer", buf)
		}
		r, err := sim.Run(sim.Config{
			Frontend: harvest.NewFrontend(tr, nil),
			Buffer: buffer.NewStatic(buffer.StaticConfig{
				Name: buf, C: size, VMax: 3.6, LeakI: size * 1e-3, VRated: 6.3,
			}),
			Device: mcu.NewDevice(mcu.DefaultProfile(), workload.NewDataEncryption(0.6e-3)),
		})
		if err != nil {
			return nil, err
		}
		res[i] = r
	}
	return res, nil
}

func burstTrace(name string) *trace.Trace {
	tr := &trace.Trace{Name: name, DT: 1, Power: make([]float64, 120)}
	for i := range tr.Power {
		if i%10 < 3 {
			tr.Power[i] = 30e-3
		} else {
			tr.Power[i] = 0.3e-3
		}
	}
	return tr
}

// TestRunGridDeterministicAcrossWorkers: the same grid produces bit-equal
// results whether it runs on one worker or many — the property the dense
// slice-per-job design guarantees.
func TestRunGridDeterministicAcrossWorkers(t *testing.T) {
	benches := []string{"DE"}
	traces := []*trace.Trace{burstTrace("b0"), burstTrace("b1")}
	buffers := []string{"small", "large"}

	ref, err := RunGrid(context.Background(), &Runner{Workers: 1}, benches, traces, buffers, simGroup)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 8} {
		g, err := RunGrid(context.Background(), &Runner{Workers: workers}, benches, traces, buffers, simGroup)
		if err != nil {
			t.Fatal(err)
		}
		g.Each(func(bench string, tr *trace.Trace, buf string, r sim.Result) {
			want := ref.At(bench, tr.Name, buf)
			if r.OnTime != want.OnTime || r.Latency != want.Latency ||
				r.Ledger != want.Ledger || r.Stored != want.Stored {
				t.Errorf("workers=%d: %s/%s/%s differs from sequential run",
					workers, bench, tr.Name, buf)
			}
			for k, v := range want.Metrics {
				if r.Metrics[k] != v {
					t.Errorf("workers=%d: %s/%s/%s metric %s: %g != %g",
						workers, bench, tr.Name, buf, k, r.Metrics[k], v)
				}
			}
		})
	}
}

// TestRunGridErrorLabelsCell: a failing group's error carries its grid
// coordinates, and a group that returns the wrong number of results fails.
func TestRunGridErrorLabelsCell(t *testing.T) {
	traces := []*trace.Trace{burstTrace("b0")}
	_, err := RunGrid(context.Background(), nil, []string{"DE"}, traces, []string{"small", "bad"}, simGroup)
	if err == nil {
		t.Fatal("want error from failing group")
	}
	if want := "DE/b0: bad: no such buffer"; err.Error() != want {
		t.Errorf("error %q, want %q", err, want)
	}
	_, err = RunGrid(context.Background(), nil, []string{"DE"}, traces, []string{"small", "large"},
		func(ctx context.Context, bench string, tr *trace.Trace, bufs []string) ([]sim.Result, error) {
			return simGroup(ctx, bench, tr, bufs[:1])
		})
	if want := "DE/b0: group returned 1 results for 2 buffers"; err == nil || err.Error() != want {
		t.Errorf("error %v, want %q", err, want)
	}
}
