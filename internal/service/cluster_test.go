package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"testing"
	"time"

	"react/internal/explore"
	"react/internal/scenario"
)

// testNode is one in-process cluster member: a Server behind a real TCP
// listener (peers dial each other over loopback) plus a dialed client.
type testNode struct {
	srv    *Server
	client *Client
	url    string
	http   *http.Server
}

// newTestCluster boots n reactd nodes sharing one ring. Listeners are
// created first so every node knows the full member list before any
// server starts.
func newTestCluster(t *testing.T, n int, cfg Config) []*testNode {
	t.Helper()
	lns := make([]net.Listener, n)
	urls := make([]string, n)
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		urls[i] = "http://" + ln.Addr().String()
	}
	nodes := make([]*testNode, n)
	for i := range nodes {
		c := cfg
		c.Self = urls[i]
		c.Peers = urls
		srv, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		hs := &http.Server{Handler: srv}
		go hs.Serve(lns[i])
		nodes[i] = &testNode{srv: srv, url: urls[i], http: hs}
	}
	t.Cleanup(func() {
		// HTTP first so no new work lands, then the servers (in-flight
		// peer fetches fail over to local simulation and drain).
		for _, nd := range nodes {
			nd.http.Close()
		}
		for _, nd := range nodes {
			nd.srv.Close()
		}
	})
	for _, nd := range nodes {
		client, err := Dial(nd.url)
		if err != nil {
			t.Fatal(err)
		}
		nd.client = client
	}
	return nodes
}

// ownerCounts computes, from the ring alone, how many of the sweep's
// cells each member owns — the test's independent model of the shard
// split (ownership is a pure function of member set and fingerprint).
func ownerCounts(t *testing.T, urls []string, seeds []uint64) map[string]int {
	t.Helper()
	cl, err := newCluster(urls[0], urls, time.Second)
	if err != nil || cl == nil {
		t.Fatalf("newCluster: %v (%v)", cl, err)
	}
	spec, err := scenario.ParseSpec([]byte(fastSpec))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for i := range spec.Buffers {
		for _, seed := range seeds {
			fp, err := spec.FingerprintCell(i, scenario.RunOptions{Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			counts[cl.owner(fp)]++
		}
	}
	return counts
}

// splitSeeds picks four consecutive seeds whose fastSpec cells land on
// both nodes, returning them with each node's owned-cell count.
// Ownership depends on the OS-assigned member ports, so it probes
// candidate seed sets (each is degenerate with probability 2^-7; four
// make a miss astronomically unlikely).
func splitSeeds(t *testing.T, a, b *testNode) ([]uint64, map[string]int) {
	t.Helper()
	for _, base := range []uint64{1, 5, 9, 13} {
		seeds := []uint64{base, base + 1, base + 2, base + 3}
		want := ownerCounts(t, []string{a.url, b.url}, seeds)
		if want[a.url] > 0 && want[b.url] > 0 {
			return seeds, want
		}
	}
	t.Fatal("degenerate shard split for every candidate seed set")
	return nil, nil
}

// TestClusterRingBalanced pins the rendezvous weights' mixing: two
// loopback members that differ only in their port split 128 cells
// roughly evenly. The first two pairs split 4/124 and 125/3 when the
// weights were raw FNV-1a, which made the cluster tests' shard split
// degenerate on some OS-assigned ports.
func TestClusterRingBalanced(t *testing.T) {
	var seeds []uint64
	for s := uint64(1); s <= 64; s++ {
		seeds = append(seeds, s)
	}
	for _, ports := range [][2]int{{53533, 47385}, {45306, 49221}, {8423, 8424}, {40000, 40001}} {
		a, b := fmt.Sprintf("http://127.0.0.1:%d", ports[0]), fmt.Sprintf("http://127.0.0.1:%d", ports[1])
		got := ownerCounts(t, []string{a, b}, seeds)
		if got[a] < 40 || got[b] < 40 {
			t.Errorf("ports %v split 128 cells %d/%d, want each side at least 40", ports, got[a], got[b])
		}
	}
}

// TestClusterSweepThenExplorationZeroNewSims is the 2-node acceptance
// test: a sweep submitted to node A shards its cells across the ring
// (each cell simulated exactly once, on its owner), and a later
// overlapping exploration on node B simulates nothing anywhere — B's cell
// hits rise, sims stay flat on both nodes.
func TestClusterSweepThenExplorationZeroNewSims(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2})
	a, b := nodes[0], nodes[1]
	ctx := context.Background()

	seeds, want := splitSeeds(t, a, b)

	sw, err := a.client.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Status != StatusDone || len(sw.Cells) != 8 {
		t.Fatalf("sweep did not complete: %+v", sw)
	}

	ma0 := readMetrics(t, a.client)
	mb0 := readMetrics(t, b.client)
	if got := int(ma0("sims_completed")); got != want[a.url] {
		t.Errorf("node A simulated %d cells, owns %d", got, want[a.url])
	}
	if got := int(mb0("sims_completed")); got != want[b.url] {
		t.Errorf("node B simulated %d cells, owns %d", got, want[b.url])
	}
	if ma0("peer_cells") != float64(want[b.url]) {
		t.Errorf("node A fetched %v peer cells, want %v", ma0("peer_cells"), want[b.url])
	}
	// Fan-out reuses the batch grouping: at most one peer request per
	// (seed) batch key, not one per cell.
	if ma0("peer_requests") == 0 || ma0("peer_requests") > float64(len(seeds)) {
		t.Errorf("node A made %v peer requests for %v batch keys", ma0("peer_requests"), len(seeds))
	}
	if ma0("peer_fallbacks") != 0 {
		t.Errorf("node A degraded %v times with a healthy peer", ma0("peer_fallbacks"))
	}

	// The overlapping exploration on B: same physics, same seeds — every
	// point served by B's own cache or by A, zero new simulations.
	spec, _ := scenario.ParseSpec([]byte(fastSpec))
	ex, err := b.client.Explore(ctx, &explore.Space{
		Spec:    spec,
		Presets: []string{"770 µF", "REACT"},
		Seeds:   seeds,
	})
	if err != nil {
		t.Fatal(err)
	}
	if ex.Status != StatusDone {
		t.Fatalf("exploration did not complete: %+v", ex)
	}
	ma1 := readMetrics(t, a.client)
	mb1 := readMetrics(t, b.client)
	if ma1("sims_completed") != ma0("sims_completed") || mb1("sims_completed") != mb0("sims_completed") {
		t.Errorf("exploration simulated: A %v->%v, B %v->%v; want flat",
			ma0("sims_completed"), ma1("sims_completed"), mb0("sims_completed"), mb1("sims_completed"))
	}
	if mb1("cell_hits") <= mb0("cell_hits") {
		t.Errorf("node B cell hits did not rise (%v -> %v)", mb0("cell_hits"), mb1("cell_hits"))
	}
}

// TestClusterResultsMatchSingleNode pins proxied results bit-identically:
// the same sweep on a lone node and through the cluster produces the same
// summary rows, whichever node simulated each cell.
func TestClusterResultsMatchSingleNode(t *testing.T) {
	ctx := context.Background()
	_, solo := newTestService(t, Config{Workers: 2})
	req := SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: []uint64{1, 2, 3}}
	want, err := solo.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	nodes := newTestCluster(t, 2, Config{Workers: 2})
	got, err := nodes[0].client.Sweep(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	wj, _ := json.Marshal(want.Summary)
	gj, _ := json.Marshal(got.Summary)
	if string(wj) != string(gj) {
		t.Errorf("clustered summary diverged from single-node:\n%s\n%s", wj, gj)
	}
}

// TestClusterDegradesWhenPeerDown: with its peer unreachable, a node
// retries once, falls back to local simulation, and still answers — a
// dead peer costs latency, never availability.
func TestClusterDegradesWhenPeerDown(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2, PeerTimeout: 500 * time.Millisecond})
	a, b := nodes[0], nodes[1]
	b.http.Close() // B is down before any work lands

	ctx := context.Background()
	// Seeds on which B owns cells, so A must forward, fail and fall back.
	seeds, _ := splitSeeds(t, a, b)

	sw, err := a.client.Sweep(ctx, SweepRequest{Spec: json.RawMessage(fastSpec), Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	if sw.Status != StatusDone || len(sw.Cells) != 8 {
		t.Fatalf("sweep did not survive the dead peer: %+v", sw)
	}
	for _, cs := range sw.Cells {
		if !cs.Done || cs.Error != "" || cs.Result == nil {
			t.Fatalf("cell not served locally after fallback: %+v", cs)
		}
	}
	m := readMetrics(t, a.client)
	if m("sims_completed") != 8 {
		t.Errorf("node A simulated %v cells, want all 8 (fallback)", m("sims_completed"))
	}
	if m("peer_fallbacks") == 0 || m("peer_retries") == 0 {
		t.Errorf("no fallback/retry recorded: %v fallbacks, %v retries", m("peer_fallbacks"), m("peer_retries"))
	}
	if m("queue_depth") != 0 {
		t.Errorf("queue depth %v after fallback drain, want 0", m("queue_depth"))
	}
}

// TestNoForwardPinsCells: a no_forward run submitted to the non-owner
// simulates where it lands — the cycle-breaking contract peer fan-out
// relies on.
func TestNoForwardPinsCells(t *testing.T) {
	nodes := newTestCluster(t, 2, Config{Workers: 2})
	a, b := nodes[0], nodes[1]
	ctx := context.Background()

	req := RunRequest{Spec: json.RawMessage(fastSpec), NoForward: true}
	if _, err := a.client.Run(ctx, req); err != nil {
		t.Fatal(err)
	}
	ma := readMetrics(t, a.client)
	mb := readMetrics(t, b.client)
	if ma("sims_completed") != 2 || ma("peer_requests") != 0 {
		t.Errorf("no_forward run forwarded: %v sims, %v peer requests on A", ma("sims_completed"), ma("peer_requests"))
	}
	if mb("sims_completed") != 0 {
		t.Errorf("node B simulated %v cells for A's pinned run", mb("sims_completed"))
	}
}
