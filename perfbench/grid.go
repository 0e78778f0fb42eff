package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/trace"
)

// gridSetupReps is how many times a paper-grid run repeats its set-up,
// which takes about a millisecond; setup_s is the median, so neither the
// first (coldest) repetition nor one slowed by a neighbour moves it.
const gridSetupReps = 51

// gridRun is one pass over Figure 7's 100 cells.
type gridRun struct {
	wall    time.Duration
	cellMs  []float64 // per cell: grid start → its batch's results
	stats   sim.Stats
	results map[string][]sim.Result
}

// figure7Seed is the evaluation seed of Figure 7 and of the paper-*
// golden files. paper-grid always simulates Figure 7 itself: across trace
// seeds the same grid costs up to ~12% more host time per cell-tick, which
// would swamp the changes the benchmark exists to see.
const figure7Seed = 1

// gridInputs is the grid's set-up: the 20 paper scenarios in dispatch
// order and the five evaluation traces they share, materialized once as
// experiments.RunGridOn does for the repository's own grid.
type gridInputs struct {
	specs  []*scenario.Spec
	traces map[string]*trace.Trace // by generator name
}

// setupGrid resolves the 20 paper scenarios from the registry and builds
// their traces. The workload seed shuffles the dispatch order of the
// twelve short RF batches, which run after the eight long solar ones (in
// registry order). Long-first keeps the lanes balanced and the latency
// percentiles steady: a fully random order moves wall time by ~6% and the
// median cell's completion by ~6% through lane stragglers alone.
func setupGrid(seed uint64, tr *tracer) (*gridInputs, error) {
	var long, short []*scenario.Spec
	for _, name := range scenario.Names() {
		s, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("scenario %q vanished from the registry", name)
		}
		switch {
		case s.Paper && s.Long:
			long = append(long, s)
		case s.Paper:
			short = append(short, s)
		}
	}
	if len(long)+len(short) != 20 {
		return nil, fmt.Errorf("registry holds %d paper scenarios, want 20", len(long)+len(short))
	}
	r := rand.New(rand.NewPCG(seed, 0x67726964))
	r.Shuffle(len(short), func(i, j int) { short[i], short[j] = short[j], short[i] })
	specs := append(long, short...)
	in := &gridInputs{specs: specs, traces: map[string]*trace.Trace{}}
	for _, s := range specs {
		if in.traces[s.Trace.Gen] != nil {
			continue
		}
		sp := tr.begin("trace.build", 0)
		t, err := trace.ByName(s.Trace.Gen, figure7Seed)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		in.traces[s.Trace.Gen] = t
	}
	return in, nil
}

// runGrid runs every paper scenario as one lockstep scenario.RunBatch
// over its five buffers and its shared trace, nproc lanes pulling batches
// in order. All 100 cells are submitted at the start, so a cell's latency
// is the time until its batch's results are in.
func runGrid(in *gridInputs, lanes int, tr *tracer) (*gridRun, error) {
	specs := in.specs
	g := &gridRun{results: map[string][]sim.Result{}}
	root := tr.begin("grid", 0)
	var (
		mu    sync.Mutex
		next  int
		first error
		wg    sync.WaitGroup
	)
	start := time.Now()
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				if next == len(specs) || first != nil {
					mu.Unlock()
					return
				}
				spec := specs[next]
				next++
				mu.Unlock()

				s := *spec
				s.Trace = scenario.TraceSpec{Loaded: in.traces[spec.Trace.Gen]}
				items := make([]scenario.BatchItem, len(s.Buffers))
				for i := range items {
					items[i] = scenario.BatchItem{Spec: &s, Buffer: i}
				}
				var st sim.Stats
				bs := tr.begin("scenario.RunBatch", root.id)
				res, err := scenario.RunBatch(items, scenario.RunOptions{Seed: figure7Seed}, &st)
				tr.end(bs)
				ms := float64(time.Since(start).Nanoseconds()) / 1e6

				mu.Lock()
				if err != nil {
					if first == nil {
						first = fmt.Errorf("%s: %w", spec.Name, err)
					}
				} else {
					g.results[spec.Name] = res
					for range res {
						g.cellMs = append(g.cellMs, ms)
					}
					g.stats.TicksSimulated += st.TicksSimulated
					g.stats.TicksFastForwarded += st.TicksFastForwarded
					g.stats.TracePasses += st.TracePasses
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	g.wall = time.Since(start)
	tr.end(root)
	return g, first
}

// gridPhase runs grids for about e.seconds: it starts another grid only
// if the previous one's time still fits, so a run makes at least one.
func gridPhase(e *env, in *gridInputs, tr *tracer) ([]*gridRun, time.Duration, float64, error) {
	var runs []*gridRun
	rss := startRSSPeak()
	cpu0 := cpuTime()
	start := time.Now()
	for {
		g, err := runGrid(in, e.nproc, tr)
		if err != nil {
			rss.mb()
			return nil, 0, 0, err
		}
		runs = append(runs, g)
		if time.Since(start).Seconds()+g.wall.Seconds() > e.seconds {
			break
		}
	}
	cpu := cpuTime() - cpu0
	mb, err := rss.mb()
	return runs, cpu, mb, err
}

func runPaperGrid(e *env) (*report, error) {
	stamp(e, e.nproc, []int{e.nproc})
	var setups []float64
	var in *gridInputs
	for rep := 0; rep < gridSetupReps; rep++ {
		t0 := time.Now()
		var err error
		if in, err = setupGrid(e.seed, nil); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}

	runs, cpu, rssMB, err := gridPhase(e, in, nil)
	if err != nil {
		return nil, err
	}
	r := newReport()
	if err := checkGrids(e, in, runs); err != nil {
		return r, err
	}
	var wall time.Duration
	var cellMs, walls []float64
	var ticks uint64
	cells := 0
	for _, g := range runs {
		wall += g.wall
		walls = append(walls, g.wall.Seconds())
		cellMs = append(cellMs, g.cellMs...)
		ticks += g.stats.TicksSimulated
		cells += len(g.cellMs)
	}
	r.attempted = cells
	p50, _ := percentile(cellMs, 500)
	p90, ok := percentile(cellMs, 900)
	if !ok {
		return nil, fmt.Errorf("%d cells cannot support a p90", len(cellMs))
	}
	r.e2e["setup_s"] = metric{Value: median(setups), Unit: "s"}
	r.e2e["ops_per_s"] = metric{Value: float64(cells) / wall.Seconds(), Unit: "ops/s"}
	r.e2e["cells_per_s"] = metric{Value: float64(cells) / wall.Seconds(), Unit: "cells/s"}
	r.e2e["latency_p50_ms"] = metric{Value: p50, Unit: "ms", n: len(cellMs)}
	r.e2e["latency_p90_ms"] = metric{Value: p90, Unit: "ms", n: len(cellMs)}
	r.e2e["cpu_ms_per_op"] = metric{Value: float64(cpu.Nanoseconds()) / 1e6 / float64(cells), Unit: "ms"}
	r.e2e["peak_rss_mb"] = metric{Value: rssMB, Unit: "MB"}
	r.extra["wall_s"] = metric{Value: median(walls), Unit: "s"}
	r.extra["grids"] = metric{Value: float64(len(runs)), Unit: "count"}
	r.extra["mcell_ticks_per_s"] = metric{Value: float64(ticks) / wall.Seconds() / 1e6, Unit: "Mticks/s"}

	if e.trace {
		return r, gridLayers(e, r, wall.Seconds()/float64(len(runs)))
	}
	return r, nil
}

// checkGrids applies the correctness gate to every grid of a run.
func checkGrids(e *env, in *gridInputs, runs []*gridRun) error {
	first := runs[0]
	for _, g := range runs {
		for _, spec := range in.specs {
			res := g.results[spec.Name]
			if len(res) != len(spec.Buffers) {
				return checkf("%s: %d results for %d buffers", spec.Name, len(res), len(spec.Buffers))
			}
			for i, r := range res {
				label := fmt.Sprintf("%s/%s", spec.Name, spec.Buffers[i].DisplayName())
				if err := checkCell(label, fromSim(r)); err != nil {
					return err
				}
				if err := sameCell(label+" (repeat grid)", fromSim(r), fromSim(first.results[spec.Name][i])); err != nil {
					return err
				}
			}
		}
	}
	for _, spec := range in.specs {
		if err := checkGolden(e.root, spec, first.results[spec.Name]); err != nil {
			return err
		}
	}
	var traces []*trace.Trace
	for _, t := range in.traces {
		traces = append(traces, t)
	}
	sort.Slice(traces, func(i, j int) bool { return traces[i].Name < traces[j].Name })
	return checkFigure7(first.results, traces)
}

// gridLayers runs the separate traced pass — spans around the set-up's
// trace builds and every RunBatch, plus a CPU profile — and fills the
// per-layer metrics.
func gridLayers(e *env, r *report, untracedWall float64) error {
	tr := newTracer()
	in, err := setupGrid(e.seed, tr)
	if err != nil {
		return err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return err
	}
	runs, _, _, err := gridPhase(e, in, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return err
	}
	if err := checkGrids(e, in, runs); err != nil {
		return err
	}
	var wall time.Duration
	var st sim.Stats
	cells := 0
	for _, g := range runs {
		wall += g.wall
		st.TicksSimulated += g.stats.TicksSimulated
		st.TicksFastForwarded += g.stats.TicksFastForwarded
		st.TracePasses += g.stats.TracePasses
		cells += len(g.cellMs)
	}
	l := layerDefaults()
	if err := profileLayers(l, prof.Bytes(), st.TicksSimulated); err != nil {
		return err
	}
	batches := tr.durations("scenario.RunBatch")
	var busy float64
	for _, ms := range batches {
		busy += ms / 1e3
	}
	p50, _ := percentile(batches, 500) // sorts batches
	set(l, "sim.cell_ticks", float64(st.TicksSimulated))
	set(l, "sim.cells_per_pass", ratio(float64(cells), float64(st.TracePasses)))
	set(l, "sim.ff_share", ratio(float64(st.TicksFastForwarded), float64(st.TicksSimulated+st.TicksFastForwarded)))
	set(l, "scenario.batch_ms_p50", p50)
	set(l, "scenario.batch_ms_max", batches[len(batches)-1])
	set(l, "runner.busy_share", busy/(wall.Seconds()*float64(e.nproc)))
	set(l, "trace.build_ms", mean(tr.durations("trace.build")))
	set(l, "tracing_overhead", wall.Seconds()/float64(len(runs))/untracedWall-1)
	r.layer = l
	return writeTrace(e, tr, prof.Bytes())
}
