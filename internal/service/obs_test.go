package service

// Observability suite: content negotiation on /metrics, the Prometheus
// exposition contract (every series parses; the cell-sim histogram count
// tracks sims_completed exactly), progress reporting, trace trees for
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

// TestMetricsExposition: /metrics serves parseable Prometheus text by
// default and the JSON report under Accept: application/json;
// /metrics.json always serves JSON; and the cell-sim histogram's count
// equals sims_completed on both formats — the invariant CI asserts
// against a live daemon.
func TestMetricsExposition(t *testing.T) {
	_, c := newTestService(t, Config{Workers: 2})
	ctx := context.Background()

	if _, err := c.Run(ctx, RunRequest{Spec: json.RawMessage(fastSpec)}); err != nil {
		t.Fatal(err)
	}

	text, ctype := scrapeText(t, c.base, "/metrics", "")
	if !strings.HasPrefix(ctype, "text/plain") || !strings.Contains(ctype, "version=0.0.4") {
		t.Errorf("/metrics content type = %q, want text exposition 0.0.4", ctype)
	}
	samples, err := obs.ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("/metrics does not parse as Prometheus text: %v", err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.SimsCompleted == 0 {
		t.Fatal("fixture run simulated nothing")
	}
	// The count==sims invariant only holds exactly on a quiescent server;
	// the run above is synchronous-complete, so it is quiescent here.
	if got := samples["react_cell_sim_duration_seconds_count"]; got != float64(m.SimsCompleted) {
		t.Errorf("histogram count %g != sims_completed %d", got, m.SimsCompleted)
	}
	if got := samples["react_sims_completed_total"]; got != float64(m.SimsCompleted) {
		t.Errorf("text sims counter %g != JSON sims_completed %d", got, m.SimsCompleted)
	}
	if samples["react_start_time_seconds"] <= 0 {
		t.Error("react_start_time_seconds missing or zero")
	}
	found := false
	for key := range samples {
		if strings.HasPrefix(key, "react_build_info{") {
			found = true
			if samples[key] != 1 {
				t.Errorf("%s = %g, want 1", key, samples[key])
			}
		}
	}
	if !found {
		t.Error("react_build_info series missing")
	}

	// Content negotiation: Accept: application/json flips /metrics to the
	// JSON report, and /metrics.json serves it unconditionally.
	for _, probe := range []struct{ path, accept string }{
		{"/metrics", "application/json"},
		{"/metrics.json", ""},
	} {
		body, ctype := scrapeText(t, c.base, probe.path, probe.accept)
		if !strings.HasPrefix(ctype, "application/json") {
			t.Errorf("GET %s (Accept %q): content type %q", probe.path, probe.accept, ctype)
		}
		var jm Metrics
		if err := json.Unmarshal([]byte(body), &jm); err != nil {
			t.Fatalf("GET %s: bad JSON: %v", probe.path, err)
		}
		if jm.SimsCompleted != m.SimsCompleted {
			t.Errorf("GET %s: sims_completed %d, want %d", probe.path, jm.SimsCompleted, m.SimsCompleted)
		}
		if jm.StartTime.IsZero() {
			t.Errorf("GET %s: start_time missing", probe.path)
		}
		if jm.Build["go_version"] == "" {
			t.Errorf("GET %s: build info missing", probe.path)
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

	// Probe seed sets until the ring lands cells on both nodes (same
	// idiom as TestClusterSweepThenExplorationZeroNewSims).
	var seeds []uint64
	var want map[string]int
	for _, base := range []uint64{1, 5, 9, 13} {
		seeds = []uint64{base, base + 1, base + 2, base + 3}
		want = ownerCounts(t, []string{a.url, b.url}, seeds)
		if want[a.url] > 0 && want[b.url] > 0 {
			break
		}
	}
	if want[a.url] == 0 || want[b.url] == 0 {
		t.Fatalf("degenerate shard split %v for every candidate seed set", want)
	}

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
