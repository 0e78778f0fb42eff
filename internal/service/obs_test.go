package service

// Observability suite: the Prometheus exposition contract (every series
// parses; the cell-sim histogram count tracks sims_completed exactly), the
// JSON report's agreement with it, progress reporting, trace trees for
// local submissions, and concurrent scrapes racing a live sweep (run
// under -race in CI).

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"

	"react/internal/explore"
	"react/internal/obs"
	"react/internal/scenario"
)

// scrapeText GETs path and returns the body and content type.
func scrapeText(t *testing.T, base, path, accept string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// TestMetricsExposition: /metrics serves parseable Prometheus text (with
// no content negotiation: an Accept header cannot turn it into JSON),
// /metrics.json serves the same registry as JSON, and the cell-sim
// histogram's count equals sims_completed on both — the invariant CI
// asserts against a live daemon.
func TestMetricsExposition(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	ctx := context.Background()

	if _, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)}); err != nil {
		t.Fatal(err)
	}

	for _, accept := range []string{"", "application/json"} {
		_, ctype := scrapeText(t, c.base, "/metrics", accept)
		if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
			t.Errorf("/metrics (Accept %q) content type = %q, want text exposition 0.0.4", accept, ctype)
		}
	}
	text, _ := scrapeText(t, c.base, "/metrics", "")
	samples, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v", err)
	}
	if _, ctype := scrapeText(t, c.base, "/metrics.json", ""); !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/metrics.json content type %q", ctype)
	}

	m := readMetrics(t, c)
	if m("sims_completed") == 0 {
		t.Fatal("fixture run simulated nothing")
	}
	// The count==sims invariant only holds exactly on a quiescent server;
	// the run above is synchronous-complete, so it is quiescent here.
	if got := samples["react_cell_sim_duration_seconds_count"]; got != m("sims_completed") {
		t.Errorf("histogram count %g != sims_completed %g", got, m("sims_completed"))
	}
	if m("start_time_s") <= 0 || samples["react_start_time_seconds"] != m("start_time_s") {
		t.Errorf("start time: text %g, JSON start_time_s %g", samples["react_start_time_seconds"], m("start_time_s"))
	}
	found := false
	for key := range samples {
		if strings.HasPrefix(key, "react_build_info{") {
			found = true
			if samples[key] != 1 {
				t.Errorf("%s = %g, want 1", key, samples[key])
			}
			if !strings.Contains(key, `go_version="go`) {
				t.Errorf("%s carries no Go toolchain version", key)
			}
		}
	}
	if !found {
		t.Error("react_build_info series missing")
	}
}

// wireKeys is the /metrics.json contract: the 43 numeric keys the report
// has always carried, each with the Prometheus series it mirrors. All are
// present on every node except disk_cells, which marks a disk store.
var wireKeys = map[string]string{
	"uptime_s":                 "react_uptime_seconds",
	"workers":                  "react_workers",
	"runs_submitted":           "react_runs_submitted_total",
	"sweeps_submitted":         "react_sweeps_submitted_total",
	"explorations_submitted":   "react_explorations_submitted_total",
	"explore_points_evaluated": "react_explore_points_total",
	"explore_cells":            "react_explore_cells_total",
	"cache_hits":               "react_run_cache_hits_total",
	"coalesced":                "react_run_coalesced_total",
	"cache_misses":             "react_run_cache_misses_total",
	"cache_hit_rate":           "react_run_cache_hit_rate",
	"cache_entries":            "react_run_cache_entries",
	"cache_capacity":           "react_run_cache_capacity",
	"cache_evictions":          "react_run_evictions_total",
	"cell_hits":                "react_cell_hits_total",
	"cell_coalesced":           "react_cell_coalesced_total",
	"cell_misses":              "react_cell_misses_total",
	"cell_hit_rate":            "react_cell_hit_rate",
	"cell_entries":             "react_cell_cache_entries",
	"cell_capacity":            "react_cell_cache_capacity",
	"cell_evictions":           "react_cell_evictions_total",
	"runs_tracked":             "react_runs_tracked",
	"runs_active":              "react_runs_active",
	"queue_depth":              "react_queue_depth",
	"cells_running":            "react_cells_running",
	"sims_completed":           "react_sims_completed_total",
	"sims_failed":              "react_sims_failed_total",
	"sims_per_sec":             "react_sims_per_sec",
	"sims_per_sec_60s":         "react_sims_per_sec_60s",
	"dropped_spans":            "react_dropped_spans",
	"ticks_simulated":          "react_ticks_simulated_total",
	"ticks_fastforwarded":      "react_ticks_fastforwarded_total",
	"trace_passes":             "react_trace_passes_total",
	"disk_cells":               "react_disk_cells",
	"disk_hits":                "react_disk_hits_total",
	"disk_misses":              "react_disk_misses_total",
	"disk_puts":                "react_disk_puts_total",
	"disk_quarantined":         "react_disk_quarantined",
	"cluster_peers":            "react_cluster_peers",
	"peer_requests":            "react_peer_requests_total",
	"peer_retries":             "react_peer_retries_total",
	"peer_fallbacks":           "react_peer_fallbacks_total",
	"peer_cells":               "react_peer_cells_total",
}

// addedKeys are the report's keys beyond wireKeys, from registry metrics
// that were once exposition-only.
var addedKeys = map[string]string{
	"start_time_s": "react_start_time_seconds",
	"cells_queued": "react_cells_queued_total",
	"cells_done":   "react_cells_done_total",
}

// TestMetricsJSONMatchesPrometheus is the one-registry acceptance test, on
// a quiescent node with a disk store and on a node of a 2-node cluster:
// /metrics.json carries every wire key as a number, and every counter and
// gauge reads the same in both renderings — keys and series pair up one
// to one, so neither format can carry a metric the other lacks. Only the
// three clock-derived gauges are exempt from equality, since they move
// between the two scrapes.
func TestMetricsJSONMatchesPrometheus(t *testing.T) {
	ctx := context.Background()
	_, solo := newTestService(t, Config{Workers: 2, Store: openStore(t, t.TempDir())})
	if _, err := solo.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)}); err != nil {
		t.Fatal(err)
	}
	nodes := newTestCluster(t, 2, Config{Workers: 2})
	seeds, _ := splitSeeds(t, nodes[0], nodes[1])
	if _, err := nodes[0].client.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: seeds}); err != nil {
		t.Fatal(err)
	}
	clock := map[string]bool{"uptime_s": true, "sims_per_sec": true, "sims_per_sec_60s": true}

	for _, node := range []struct {
		name  string
		c     *Client
		store bool
	}{{"store", solo, true}, {"cluster", nodes[0].client, false}} {
		body, _ := scrapeText(t, node.c.base, "/metrics.json", "")
		var report map[string]any
		if err := json.Unmarshal([]byte(body), &report); err != nil {
			t.Fatalf("%s: /metrics.json is not a JSON object: %v", node.name, err)
		}
		text, _ := scrapeText(t, node.c.base, "/metrics", "")
		samples, err := obs.ParsePrometheus(strings.NewReader(text))
		if err != nil {
			t.Fatalf("%s: /metrics does not parse: %v", node.name, err)
		}
		for key := range wireKeys {
			if _, ok := report[key]; !ok && (key != "disk_cells" || node.store) {
				t.Errorf("%s: wire key %s missing", node.name, key)
			}
		}
		if _, ok := report["disk_cells"]; ok != node.store {
			t.Errorf("%s: disk_cells present = %v, want %v", node.name, ok, node.store)
		}

		// Every unlabelled counter and gauge family is a JSON key.
		keyed := map[string]bool{}
		for _, line := range strings.Split(text, "\n") {
			f := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if strings.HasPrefix(line, "# TYPE ") && f[1] != "histogram" {
				if _, unlabelled := samples[f[0]]; unlabelled {
					keyed[f[0]] = true
				}
			}
		}
		for key, raw := range report {
			series, ok := wireKeys[key]
			if !ok {
				series, ok = addedKeys[key]
			}
			if !ok {
				t.Errorf("%s: unexpected JSON key %s", node.name, key)
				continue
			}
			delete(keyed, series)
			v, isNum := raw.(float64)
			if !isNum {
				t.Errorf("%s: %s = %v, want a number", node.name, key, raw)
				continue
			}
			if got, ok := samples[series]; !ok {
				t.Errorf("%s: JSON key %s has no series %s", node.name, key, series)
			} else if got != v && !clock[key] {
				t.Errorf("%s: %s = %g in JSON, %s = %g in text", node.name, key, v, series, got)
			}
		}
		for series := range keyed {
			t.Errorf("%s: series %s has no JSON key", node.name, series)
		}
	}
}

// TestConcurrentScrapeDuringSweep races both metrics formats against a
// live sweep — the scrape path reads every counter, histogram, and
// mu-guarded gauge while the scheduler is writing them, so this test is
// only meaningful under -race (CI runs the package that way).
func TestConcurrentScrapeDuringSweep(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	ctx := context.Background()

	sw, err := c.SweepAsync(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1, 2, 3, 4}})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				text, _ := scrapeText(t, c.base, "/metrics", "")
				if _, err := obs.ParsePrometheus(strings.NewReader(text)); err != nil {
					t.Errorf("mid-sweep scrape does not parse: %v", err)
					return
				}
				if _, err := c.Metrics(ctx); err != nil {
					t.Errorf("mid-sweep JSON metrics: %v", err)
					return
				}
			}
		}()
	}

	st, err := sw.Wait(ctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone {
		t.Fatalf("sweep finished %s", st.Status)
	}
}

// TestRunProgressAndTraceTree: a completed run reports full progress
// (cells done, ticks simulated or fast-forwarded) and a retrievable span
// tree — one run root whose batch spans parent the per-cell sim spans.
func TestRunProgressAndTraceTree(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	ctx := context.Background()

	r, err := c.RunAsync(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone {
		t.Fatalf("run finished %s", st.Status)
	}
	if st.Progress.CellsTotal != 2 || st.Progress.CellsDone != 2 {
		t.Errorf("progress %+v, want 2/2 cells", st.Progress)
	}
	if st.Progress.TicksSimulated+st.Progress.TicksFastForwarded == 0 {
		t.Error("progress reports zero ticks for a freshly simulated run")
	}
	if st.TraceID == "" {
		t.Fatal("run status carries no trace id")
	}

	tr, err := r.Trace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != st.TraceID {
		t.Errorf("trace id %s != status trace id %s", tr.TraceID, st.TraceID)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "run" {
		t.Fatalf("trace roots %+v, want one 'run' root", tr.Roots)
	}
	root := tr.Roots[0]
	if root.Attrs["status"] != string(StatusDone) {
		t.Errorf("root status attr %q", root.Attrs["status"])
	}
	sims := 0
	for _, b := range root.Children {
		if b.Name != "batch" {
			t.Errorf("run child %q, want batch", b.Name)
			continue
		}
		for _, s := range b.Children {
			if s.Name == "sim" {
				sims++
				if s.EndUnixNs == 0 {
					t.Error("sim span never ended")
				}
			}
		}
	}
	if sims != 2 {
		t.Errorf("trace shows %d sim spans, want 2", sims)
	}

	// The raw per-node endpoint serves the same trace flat.
	raw, err := c.TraceSpans(ctx, st.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw.Spans) < 4 { // run + >=1 batch + 2 sims
		t.Errorf("raw trace has %d spans, want >= 4", len(raw.Spans))
	}

	// A second identical submission is a pure cell-cache hit: a new view
	// with its own trace, which records no work — no batch, no sim.
	r2, err := c.RunAsync(ctx, RunRequest{Spec: json.RawMessage(fastSpec)})
	if err != nil {
		t.Fatal(err)
	}
	st2 := r2.Submitted
	if !st2.Cached || st2.TraceID == "" || st2.TraceID == st.TraceID {
		t.Errorf("cached resubmission: cached=%v trace=%q (first %q)", st2.Cached, st2.TraceID, st.TraceID)
	}
	tr2, err := r2.Trace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Roots) != 1 || tr2.Roots[0].Name != "run" {
		t.Fatalf("cached resubmission trace roots %+v, want one 'run' root", tr2.Roots)
	}
	raw2, err := c.TraceSpans(ctx, st2.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range raw2.Spans {
		if sp.Name == "batch" || sp.Name == "sim" {
			t.Errorf("cached resubmission trace has a %q span; it did no work", sp.Name)
		}
	}
}

// TestTraceEndpointErrors: malformed and unknown ids are clean 4xxs.
func TestTraceEndpointErrors(t *testing.T) {
	_, c := newTestService(t, Config{})
	for _, path := range []string{
		"/traces/nothex",
		"/traces/00000000000000000000000000000000",
		"/runs/does-not-exist/trace",
	} {
		resp, err := http.Get(c.base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode < 400 || resp.StatusCode >= 500 {
			t.Errorf("GET %s: HTTP %d, want 4xx", path, resp.StatusCode)
		}
	}
}

// TestClusterTracePropagation is the cross-node tracing acceptance test:
// an exploration submitted to node A fans peer-owned cells to node B over
// traceparent-carrying forwards, so B's batch and sim spans land in A's
// trace — and A's /explorations/{id}/trace endpoint merges both nodes'
// fragments into one tree under one trace ID.
func TestClusterTracePropagation(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2})
	a, b := nodes[0], nodes[1]
	ctx := context.Background()

	seeds, _ := splitSeeds(t, a, b)

	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	ex, err := a.client.ExploreAsync(ctx, &explore.Space{
		Spec:    spec,
		Presets: []string{"770 µF", "REACT"},
		Seeds:   seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, err := ex.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Status != StatusDone {
		t.Fatalf("exploration finished %s", st.Status)
	}
	if st.TraceID == "" {
		t.Fatal("exploration status carries no trace id")
	}

	// B recorded spans under A's trace ID: the traceparent crossed the
	// peer forward, so the remote batch groups carry the originating
	// node's trace.
	rawB, err := b.client.TraceSpans(ctx, st.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	remoteSims := 0
	for _, sp := range rawB.Spans {
		if sp.TraceID != st.TraceID {
			t.Fatalf("node B span %s carries trace %s, want %s", sp.SpanID, sp.TraceID, st.TraceID)
		}
		if sp.Name == "sim" && sp.Node == b.url {
			remoteSims++
		}
	}
	if remoteSims == 0 {
		t.Fatalf("node B recorded no sim spans under A's trace (%d spans total)", len(rawB.Spans))
	}

	// The merged tree from A: one root, fragments from both nodes, and
	// the peer hop visible as a span attributed to A.
	tr, err := ex.Trace(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TraceID != st.TraceID {
		t.Errorf("trace id %s != status trace id %s", tr.TraceID, st.TraceID)
	}
	if len(tr.PeersFailed) != 0 {
		t.Errorf("peer fetch failed for %v with healthy peers", tr.PeersFailed)
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "exploration" {
		t.Fatalf("merged trace roots %+v, want one 'exploration' root", tr.Roots)
	}
	nodesSeen := map[string]bool{}
	names := map[string]int{}
	var walk func(n *obs.SpanTree)
	walk = func(n *obs.SpanTree) {
		nodesSeen[n.Node] = true
		names[n.Name]++
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tr.Roots[0])
	if !nodesSeen[a.url] || !nodesSeen[b.url] {
		t.Errorf("merged tree spans nodes %v, want both %s and %s", nodesSeen, a.url, b.url)
	}
	if names["peer"] == 0 {
		t.Error("merged tree shows no peer span for the cross-node fan-out")
	}
	if names["sim"] < len(seeds)*2 {
		t.Errorf("merged tree shows %d sim spans, want %d", names["sim"], len(seeds)*2)
	}
}
