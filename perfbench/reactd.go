package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"react/internal/explore"
	"react/internal/obs"
	"react/internal/scenario"
	"react/internal/service"
	"react/internal/store"
)

// node is one in-process reactd: a service.Server with its own disk store
// behind a real loopback listener, and a client dialed to it.
type node struct {
	url    string
	srv    *service.Server
	store  *store.Store
	hs     *http.Server
	served chan struct{} // closed when Serve returns
	client *service.Client
}

// bootNodes opens one store per directory and starts one reactd on each,
// as a cluster when there are several. It returns each store.Open time.
func bootNodes(ctx context.Context, dirs []string, workers []int) ([]*node, []float64, error) {
	lns := make([]net.Listener, len(dirs))
	urls := make([]string, len(dirs))
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return nil, nil, err
		}
		lns[i], urls[i] = ln, "http://"+ln.Addr().String()
	}
	var nodes []*node
	var opens []float64
	for i, dir := range dirs {
		t0 := time.Now()
		st, err := store.Open(dir)
		opens = append(opens, time.Since(t0).Seconds())
		if err != nil {
			closeNodes(nodes)
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, nil, err
		}
		cfg := service.Config{Workers: workers[i], CacheCells: missCacheCells, Store: st}
		if len(dirs) > 1 {
			cfg.Self, cfg.Peers = urls[i], urls
		}
		srv, err := service.New(cfg)
		if err != nil {
			st.Close()
			closeNodes(nodes)
			for _, l := range lns[i:] {
				l.Close()
			}
			return nil, nil, err
		}
		n := &node{url: urls[i], srv: srv, store: st, hs: &http.Server{Handler: srv}, served: make(chan struct{})}
		go func(ln net.Listener) {
			defer close(n.served)
			n.hs.Serve(ln) // returns http.ErrServerClosed on Close
		}(lns[i])
		nodes = append(nodes, n)
	}
	for _, n := range nodes {
		c, err := service.DialContext(ctx, n.url)
		if err != nil {
			closeNodes(nodes)
			return nil, nil, err
		}
		n.client = c
	}
	return nodes, opens, nil
}

// closeNodes stops HTTP first so no new work lands, then the servers
// (draining in-flight cells), then the stores, and waits for every serve
// loop to exit.
func closeNodes(nodes []*node) {
	for _, n := range nodes {
		n.hs.Close()
		<-n.served
	}
	for _, n := range nodes {
		n.srv.Close()
		n.store.Close()
	}
	if t, ok := http.DefaultTransport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// served is one cell of a completed operation.
type served struct {
	buffer string
	seed   uint64
	fig    cellFigures
}

// opResult is one operation as the client saw it.
type opResult struct {
	ms       float64 // submit → terminal status received
	submitMs float64
	polls    int
	failed   bool
	viewHit  bool // a run answered by an existing view (created before the submit)
	cells    []served
	bad      error // a done operation that is missing a cell's result
}

// do submits one request and polls it at a fixed interval until its
// status is terminal. A submission that is already terminal costs one
// round trip. Failed or cancelled statuses and transport errors mark the
// operation failed; a done operation's cells must all carry results.
func do(ctx context.Context, c *service.Client, req request, every time.Duration, tr *tracer, parent int64) opResult {
	var out opResult
	start := time.Now()
	sub := tr.begin("client.submit", parent)
	var (
		status string
		poll   func() error
		cells  func() ([]served, error)
	)
	switch req.kind {
	case "run":
		rr, err := c.RunAsync(ctx, service.RunRequest{Scenario: req.scenario, Seed: req.seeds[0], DT: req.dt})
		if err != nil {
			tr.end(sub)
			return opResult{failed: true}
		}
		st := rr.Submitted
		out.viewHit = st.Created.Before(start)
		poll = func() (err error) {
			if st, err = rr.Poll(ctx); err == nil {
				status = st.Status
			}
			return err
		}
		cells = func() ([]served, error) {
			var cs []served
			for _, cl := range st.Cells {
				if !cl.Done || cl.Result == nil {
					return nil, fmt.Errorf("cell %s not done: %s", cl.Buffer, cl.Error)
				}
				cs = append(cs, served{cl.Buffer, st.Seed, fromWire(cl.Result)})
			}
			return cs, nil
		}
		status = st.Status
	case "sweep":
		sr := service.SweepRequest{Scenario: req.scenario, Seeds: req.seeds, Buffers: req.buffers}
		if req.dt > 0 {
			sr.DTs = []float64{req.dt}
		}
		rs, err := c.SweepAsync(ctx, sr)
		if err != nil {
			tr.end(sub)
			return opResult{failed: true}
		}
		st := rs.Submitted
		poll = func() (err error) {
			if st, err = rs.Poll(ctx); err == nil {
				status = st.Status
			}
			return err
		}
		cells = func() ([]served, error) {
			var cs []served
			for _, cl := range st.Cells {
				if !cl.Done || cl.Result == nil {
					return nil, fmt.Errorf("cell %s/%d not done: %s", cl.Buffer, cl.Seed, cl.Error)
				}
				cs = append(cs, served{cl.Buffer, cl.Seed, fromWire(cl.Result)})
			}
			return cs, nil
		}
		status = st.Status
	case "explore":
		sp := &explore.Space{Scenario: req.scenario, Static: req.static, Seeds: req.seeds}
		if req.dt > 0 {
			sp.DTs = []float64{req.dt}
		}
		rx, err := c.ExploreAsync(ctx, sp)
		if err != nil {
			tr.end(sub)
			return opResult{failed: true}
		}
		st := rx.Submitted
		poll = func() (err error) {
			if st, err = rx.Poll(ctx); err == nil {
				status = st.Status
			}
			return err
		}
		cells = func() ([]served, error) {
			var cs []served
			for _, cl := range st.Cells {
				if !cl.Done || cl.Result == nil {
					return nil, fmt.Errorf("point %d cell not done: %s", cl.Point, cl.Error)
				}
				cs = append(cs, served{cl.Buffer, cl.Seed, fromWire(cl.Result)})
			}
			return cs, nil
		}
		status = st.Status
	}
	tr.end(sub)
	out.submitMs = float64(time.Since(start).Nanoseconds()) / 1e6
	for !service.Terminal(status) {
		select {
		case <-ctx.Done():
			return opResult{failed: true}
		case <-time.After(every):
		}
		ps := tr.begin("client.poll", parent)
		err := poll()
		tr.end(ps)
		out.polls++
		if err != nil {
			return opResult{failed: true, polls: out.polls}
		}
	}
	out.ms = float64(time.Since(start).Nanoseconds()) / 1e6
	if status != service.StatusDone {
		out.failed = true
		return out
	}
	cs, err := cells()
	if err != nil {
		out.bad = checkf("%s %s: done, but %v", req.kind, req.scenario, err)
	}
	out.cells = cs
	return out
}

// loopResult is what a closed-loop phase measured.
type loopResult struct {
	wall           time.Duration
	cpu            time.Duration
	rssMB          float64
	rssErr         error
	attempted      int
	failed         int
	lat, submit    []float64 // successful operations
	polls          int
	runs, viewHits int
	sampled        map[uint64]sampledOp
	nextIndex      uint64
	checkErr       error
	scrapes        []float64 // ms
	before, after  map[string]float64
}

// sampledOp is an operation kept for the local-reference comparison.
type sampledOp struct {
	req   request
	cells []served
}

// loopConfig describes one closed-loop phase.
type loopConfig struct {
	nodes    []*service.Client // a request goes to nodes[request.node]
	clients  int               // client goroutines
	gen      missMix
	first    uint64 // index of the phase's first request
	seconds  float64
	minOps   int // keep issuing past seconds until this many succeed
	maxSecs  float64
	sampleAt func(i uint64) bool
	tr       *tracer
}

// closedLoop runs the clients until the phase's time is up (and minOps
// operations have succeeded): each client sends its next request only
// after the previous one reached a terminal status. Request i of the
// sequence goes to whichever client is free; the set of requests issued
// is the sequence's prefix whatever the interleaving.
func closedLoop(ctx context.Context, cfg loopConfig) *loopResult {
	res := &loopResult{sampled: map[uint64]sampledOp{}}
	var (
		mu   sync.Mutex
		next atomic.Uint64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	next.Store(cfg.first)
	rss := startRSSPeak()
	cpu0 := cpuTime()
	start := time.Now()
	for range cfg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := next.Add(1) - 1
				req := cfg.gen.at(i)
				opSpan := cfg.tr.begin("op."+req.kind, 0)
				r := do(ctx, cfg.nodes[req.node], req, missPoll, cfg.tr, opSpan.id)
				cfg.tr.end(opSpan)
				cerr := r.bad
				for _, s := range r.cells {
					if cerr != nil {
						break
					}
					cerr = checkCell(fmt.Sprintf("%s %s seed %d %s", req.kind, req.scenario, s.seed, s.buffer), s.fig)
				}
				mu.Lock()
				res.attempted++
				res.polls += r.polls
				if r.failed {
					res.failed++
				} else {
					res.lat = append(res.lat, r.ms)
					res.submit = append(res.submit, r.submitMs)
				}
				if req.kind == "run" {
					res.runs++
					if r.viewHit {
						res.viewHits++
					}
				}
				if cerr != nil && res.checkErr == nil {
					res.checkErr = cerr
				}
				if !r.failed && cfg.sampleAt(i) {
					res.sampled[i] = sampledOp{req, r.cells}
				}
				el := time.Since(start).Seconds()
				done := (el >= cfg.seconds && len(res.lat) >= cfg.minOps) || el >= cfg.maxSecs || res.checkErr != nil
				mu.Unlock()
				if done || ctx.Err() != nil {
					stop.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.cpu = cpuTime() - cpu0
	res.rssMB, res.rssErr = rss.mb()
	res.nextIndex = next.Load()
	return res
}

// scrape fetches and parses every node's Prometheus exposition, sums the
// series across nodes, and appends each fetch's time to ms.
func scrape(ctx context.Context, nodes []*node, tr *tracer, ms *[]float64) (map[string]float64, error) {
	sum := map[string]float64{}
	for _, n := range nodes {
		sp := tr.begin("obs.scrape", 0)
		t0 := time.Now()
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.url+"/metrics", nil)
		if err != nil {
			return nil, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return nil, err
		}
		var body bytes.Buffer
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s/metrics: HTTP %d", n.url, resp.StatusCode)
		}
		series, err := obs.ParsePrometheus(&body)
		if err != nil {
			return nil, fmt.Errorf("%s/metrics: %w", n.url, err)
		}
		tr.end(sp)
		*ms = append(*ms, float64(time.Since(t0).Nanoseconds())/1e6)
		for k, v := range series {
			sum[k] += v
		}
	}
	return sum, nil
}

// compareLocal recomputes a sampled operation's cells with a local
// scenario.RunBatch per seed and requires bit-identical figures.
// Exploration points are derived specs the local registry does not hold;
// they are covered by the per-cell invariants instead.
func compareLocal(op sampledOp) error {
	if op.req.kind == "explore" {
		return nil
	}
	spec, ok := scenario.Lookup(op.req.scenario)
	if !ok {
		return fmt.Errorf("scenario %q not registered", op.req.scenario)
	}
	index := map[string]int{}
	for i, b := range spec.Buffers {
		index[b.DisplayName()] = i
	}
	bySeed := map[uint64][]served{}
	var order []uint64
	for _, s := range op.cells {
		if _, ok := bySeed[s.seed]; !ok {
			order = append(order, s.seed)
		}
		bySeed[s.seed] = append(bySeed[s.seed], s)
	}
	for _, seed := range order {
		cs := bySeed[seed]
		items := make([]scenario.BatchItem, len(cs))
		for j, s := range cs {
			bi, ok := index[s.buffer]
			if !ok {
				return checkf("%s: served unknown buffer %q", spec.Name, s.buffer)
			}
			items[j] = scenario.BatchItem{Spec: spec, Buffer: bi}
		}
		local, err := scenario.RunBatch(items, scenario.RunOptions{Seed: seed, DT: op.req.dt}, nil)
		if err != nil {
			return err
		}
		for j, s := range cs {
			label := fmt.Sprintf("%s %s seed %d %s", op.req.kind, spec.Name, seed, s.buffer)
			if err := sameCell(label, s.fig, fromSim(local[j])); err != nil {
				return err
			}
		}
	}
	return nil
}

const (
	// missPoll is the poll interval, well below the workload's median.
	missPoll = 5 * time.Millisecond
	// missSampleStep: every missSampleStep-th request is recomputed locally.
	missSampleStep = 31
	// missSetupReps is the set-ups per run; setup_s is their median.
	missSetupReps = 5
	// setupSlack bounds the set-ups, the scrapes and the local
	// recomputation of a run, beside its closed-loop phases.
	setupSlack = 60 * time.Second
)

// workerSplit gives each of n nodes a share of nproc simulation workers.
func workerSplit(nproc, n int) []int {
	w := make([]int, n)
	for i := range w {
		w[i] = max(1, nproc/n)
	}
	return w
}

func runReactdMiss(e *env) (*report, error) {
	cfg := loopConfig{gen: missMix{e.seed}, clients: e.nproc, seconds: e.seconds, minOps: minSamples(900),
		maxSecs: 2 * e.seconds}
	phases := 1
	if e.trace {
		phases = 2
	}
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(float64(phases)*cfg.maxSecs*float64(time.Second))+setupSlack)
	defer cancel()
	workers := workerSplit(e.nproc, missNodes)
	stamp(e, e.nproc, workers)

	var setups, opens []float64
	var nodes []*node
	for rep := 0; rep < missSetupReps; rep++ {
		t0 := time.Now()
		var dirs []string
		for i := 0; i < missNodes; i++ {
			dirs = append(dirs, filepath.Join(e.work, fmt.Sprintf("rep%d-node%d", rep, i)))
		}
		ns, o, err := bootNodes(ctx, dirs, workers)
		if err != nil {
			return nil, err
		}
		if err := warmMiss(ctx, e, ns); err != nil {
			closeNodes(ns)
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		opens = append(opens, o...)
		if rep < missSetupReps-1 {
			closeNodes(ns)
		} else {
			nodes = ns
		}
	}
	defer closeNodes(nodes)

	for _, n := range nodes {
		cfg.nodes = append(cfg.nodes, n.client)
	}
	// The sample offsets follow the seed, so different seeds compare
	// different requests.
	cfg.sampleAt = func(i uint64) bool { return i%missSampleStep == e.seed%missSampleStep }

	// phase runs one timed closed loop — under a CPU profile written to
	// prof when prof is non-nil — then checks it outside the timing.
	phase := func(cfg loopConfig, prof *bytes.Buffer) (*loopResult, error) {
		var scrapes []float64
		before, err := scrape(ctx, nodes, cfg.tr, &scrapes)
		if err != nil {
			return nil, err
		}
		if prof != nil {
			if err := pprof.StartCPUProfile(prof); err != nil {
				return nil, err
			}
		}
		lr := closedLoop(ctx, cfg)
		if prof != nil {
			pprof.StopCPUProfile()
		}
		if lr.checkErr != nil {
			return lr, lr.checkErr
		}
		if lr.rssErr != nil {
			return lr, lr.rssErr
		}
		if lr.after, err = scrape(ctx, nodes, cfg.tr, &scrapes); err != nil {
			return nil, err
		}
		lr.before, lr.scrapes = before, scrapes
		if len(lr.sampled) == 0 {
			return lr, checkf("no request of the sample completed")
		}
		for _, op := range lr.sampled {
			if err := compareLocal(op); err != nil {
				return lr, err
			}
		}
		if len(lr.lat) < cfg.minOps {
			return lr, fmt.Errorf("only %d operations completed in %.0f s; p90 needs %d",
				len(lr.lat), cfg.maxSecs, cfg.minOps)
		}
		return lr, nil
	}

	r := newReport()
	lr, err := phase(cfg, nil)
	if lr != nil {
		r.attempted, r.failed = lr.attempted, lr.failed
	}
	if err != nil {
		return r, err
	}
	wall := lr.wall.Seconds()
	p50, _ := percentile(lr.lat, 500)
	p90, _ := percentile(lr.lat, 900)
	d := func(k string) float64 { return lr.after[k] - lr.before[k] }
	r.e2e["setup_s"] = metric{Value: median(setups), Unit: "s"}
	r.e2e["ops_per_s"] = metric{Value: float64(len(lr.lat)) / wall, Unit: "ops/s"}
	r.e2e["cells_per_s"] = metric{Value: d("react_sims_completed_total") / wall, Unit: "cells/s"}
	r.e2e["latency_p50_ms"] = metric{Value: p50, Unit: "ms", n: len(lr.lat)}
	r.e2e["latency_p90_ms"] = metric{Value: p90, Unit: "ms", n: len(lr.lat)}
	r.e2e["cpu_ms_per_op"] = metric{Value: float64(lr.cpu.Nanoseconds()) / 1e6 / float64(lr.attempted), Unit: "ms"}
	r.e2e["peak_rss_mb"] = metric{Value: lr.rssMB, Unit: "MB"}
	r.extra["wall_s"] = metric{Value: wall, Unit: "s"}
	r.extra["error_rate"] = metric{Value: ratio(float64(lr.failed), float64(lr.attempted)), Unit: "share"}
	r.extra["mcell_ticks_per_s"] = metric{Value: d("react_ticks_simulated_total") / wall / 1e6, Unit: "Mticks/s"}
	r.extra["sampled_ops_compared"] = metric{Value: float64(len(lr.sampled)), Unit: "count"}
	if !e.trace {
		return r, nil
	}

	// The separate traced pass continues the request sequence, so its
	// fresh requests still carry unseen seeds and its repeats still find
	// their runs.
	tr := newTracer()
	tcfg := cfg
	tcfg.first, tcfg.tr = lr.nextIndex, tr
	var prof bytes.Buffer
	tl, err := phase(tcfg, &prof)
	if err != nil {
		return r, err
	}
	td := func(k string) float64 { return tl.after[k] - tl.before[k] }
	hmean := func(h string, scale float64) float64 { return scale * ratio(td(h+"_sum"), td(h+"_count")) }
	l := layerDefaults()
	if err := profileLayers(l, prof.Bytes(), uint64(td("react_ticks_simulated_total"))); err != nil {
		return r, err
	}
	attach := td("react_cell_hits_total") + td("react_cell_coalesced_total") + td("react_cell_misses_total")
	submitP50, _ := percentile(tl.submit, 500)
	scrapeP50, _ := percentile(tl.scrapes, 500)
	ticks, ff := td("react_ticks_simulated_total"), td("react_ticks_fastforwarded_total")
	set(l, "sim.cell_ticks", ticks)
	set(l, "sim.cells_per_pass", ratio(td("react_sims_completed_total"), td("react_trace_passes_total")))
	set(l, "sim.ff_share", ratio(ff, ticks+ff))
	set(l, "client.submit_ms_p50", submitP50)
	set(l, "client.polls_per_op", ratio(float64(tl.polls), float64(tl.attempted)))
	set(l, "client.error_rate", ratio(float64(tl.failed), float64(tl.attempted)))
	set(l, "service.run_hit_share", ratio(td("react_run_cache_hits_total"), td("react_runs_submitted_total")))
	set(l, "service.view_hit_share", ratio(float64(tl.viewHits), float64(tl.runs)))
	set(l, "service.cell_hit_share", ratio(td("react_cell_hits_total"), attach))
	set(l, "service.batch_cells_mean", hmean("react_batch_cells", 1))
	set(l, "service.queue_wait_ms_mean", hmean("react_queue_wait_seconds", 1e3))
	set(l, "service.cell_sim_ms_mean", hmean("react_cell_sim_duration_seconds", 1e3))
	set(l, "service.coalesced", td("react_run_coalesced_total")+td("react_cell_coalesced_total"))
	set(l, "explore.op_ms_mean", mean(tr.durations("op.explore")))
	set(l, "store.disk_hit_share", ratio(td("react_disk_hits_total"), attach))
	set(l, "store.get_ms_mean", hmean("react_disk_get_seconds", 1e3))
	set(l, "store.put_ms_mean", hmean("react_disk_put_seconds", 1e3))
	set(l, "store.open_s", median(opens))
	set(l, "obs.scrape_ms", scrapeP50)
	set(l, "obs.dropped_spans", tl.after["react_dropped_spans"])
	rtt := hmean("react_peer_rtt_seconds", 1e3)
	set(l, "cluster.peer_cell_share", ratio(td("react_peer_cells_total"), td("react_sims_completed_total")))
	set(l, "cluster.peer_rtt_ms_mean", rtt)
	if rtt > 0 {
		set(l, "cluster.peer_wait_excess_ms", rtt-l["service.queue_wait_ms_mean"].Value-l["service.cell_sim_ms_mean"].Value)
	}
	set(l, "cluster.peer_fallbacks", td("react_peer_fallbacks_total"))
	// Wall time per operation, traced over untraced.
	set(l, "tracing_overhead", tl.wall.Seconds()/float64(len(tl.lat))/(wall/float64(len(lr.lat)))-1)
	r.layer = l
	return r, writeTrace(e, tr, prof.Bytes())
}

// warmMiss has every client send one request of the mix, so the
// cluster's lazy set-up — peer connections, the first batches, heap
// growth — is done before timing. Its seeds are the same for every
// workload seed, so the cells shard the same way and set-up does the same
// work in every run; they lie below 1<<32, where the timed sequence
// never draws.
func warmMiss(ctx context.Context, e *env, nodes []*node) error {
	var wg sync.WaitGroup
	var failed atomic.Int64
	for c := 0; c < e.nproc; c++ {
		req := missTemplates[c%len(missTemplates)]
		seeds := make([]uint64, len(req.seeds))
		for k := range seeds {
			seeds[k] = uint64(c)<<3 + uint64(k) + 1
		}
		req.seeds = seeds
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r := do(ctx, nodes[c%len(nodes)].client, req, time.Millisecond, nil, 0); r.failed || r.bad != nil {
				failed.Add(1)
			}
		}()
	}
	wg.Wait()
	if n := failed.Load(); n > 0 {
		return fmt.Errorf("warm-up: %d requests failed", n)
	}
	return nil
}
