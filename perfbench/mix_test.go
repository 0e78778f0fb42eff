package main

import (
	"fmt"
	"reflect"
	"testing"

	"react/internal/explore"
	"react/internal/scenario"
)

// reqKey identifies a request by value.
func reqKey(r request) string {
	k := fmt.Sprint(r.kind, r.scenario, r.seeds, r.dt, r.buffers, r.node)
	if r.static != nil {
		k += fmt.Sprint(*r.static)
	}
	return k
}

func TestMixRepeatsForTheSameSeed(t *testing.T) {
	a, b, other := missMix{7}, missMix{7}, missMix{8}
	differ := false
	for i := uint64(0); i < 500; i++ {
		ra, rb := a.at(i), b.at(i)
		if !reflect.DeepEqual(ra, rb) {
			t.Fatalf("request %d differs between two generators of seed 7: %+v vs %+v", i, ra, rb)
		}
		if !reflect.DeepEqual(ra, other.at(i)) {
			differ = true
		}
	}
	if !differ {
		t.Error("seeds 7 and 8 generate the same 500 requests")
	}
}

func TestMixBlocksHoldEverySlot(t *testing.T) {
	m := missMix{3}
	n := uint64(len(blockSlots))
	want := map[string]int{}
	for _, r := range missTemplates {
		r.node = 0
		want[reqKey(r)]++
	}
	for block := uint64(0); block < 30; block++ {
		fresh := map[string]int{}
		kinds := map[string]int{}
		for j := uint64(0); j < n; j++ {
			r := m.at(block*n + j)
			kinds[r.kind]++
			if !isRepeat(m, block*n+j) {
				r.seeds = make([]uint64, len(r.seeds))
				r.node = 0
				fresh[reqKey(r)]++
			}
		}
		if !reflect.DeepEqual(fresh, want) {
			t.Fatalf("block %d holds fresh requests %v, want %v", block, fresh, want)
		}
		if kinds["run"] != 7 || kinds["sweep"] != 7 || kinds["explore"] != 1 {
			t.Fatalf("block %d holds %v, want 7 runs, 7 sweeps, 1 exploration", block, kinds)
		}
	}
}

// isRepeat reports whether request i is in one of the block's hit slots.
func isRepeat(m missMix, i uint64) bool {
	return stratified(m.seed, missStream, i, blockSlots) >= len(missTemplates)
}

// TestMixSeedsAreFreshOrRepeated checks that every fresh request carries
// seeds no earlier request carried, and that a repeat asks, on the same
// node, for the cells of exactly the run it names, age blocks back.
func TestMixSeedsAreFreshOrRepeated(t *testing.T) {
	m := missMix{9}
	n := uint64(len(blockSlots))
	seen := map[uint64]uint64{}
	runAt := map[[2]uint64]request{} // (block, template slot) → the run sent
	var pending []uint64
	for i := uint64(0); i < 60*n; i++ {
		r := m.at(i)
		b := i / n
		slot := stratified(m.seed, missStream, i, blockSlots)
		if slot < len(missTemplates) && r.kind == "run" {
			runAt[[2]uint64{b, uint64(slot)}] = r
		}
		if slot >= len(missTemplates) {
			rp := missRepeats[slot-len(missTemplates)]
			if r.kind != rp.kind || r.scenario != missTemplates[rp.slot].scenario {
				t.Fatalf("request %d is %s %s, want %s %s", i, r.kind, r.scenario, rp.kind, missTemplates[rp.slot].scenario)
			}
			if b >= rp.age {
				pending = append(pending, i)
				continue
			}
		}
		for _, s := range r.seeds {
			if s == 0 || s < 1<<32 {
				t.Fatalf("request %d carries seed %d, in the warm-up's range", i, s)
			}
			if j, dup := seen[s]; dup {
				t.Fatalf("seed %d appears in requests %d and %d", s, j, i)
			}
			seen[s] = i
		}
	}
	if len(pending) == 0 {
		t.Fatal("no repeat found")
	}
	for _, i := range pending {
		r := m.at(i)
		rp := missRepeats[stratified(m.seed, missStream, i, blockSlots)-len(missTemplates)]
		src, ok := runAt[[2]uint64{i/n - rp.age, uint64(rp.slot)}]
		if !ok {
			t.Fatalf("request %d repeats a run that was never sent", i)
		}
		if !reflect.DeepEqual(r.seeds, src.seeds) || r.node != src.node || r.dt != src.dt {
			t.Fatalf("request %d (%+v) does not repeat %+v", i, r, src)
		}
	}
}

// cellsOf counts the cells a request attaches.
func cellsOf(t *testing.T, r request) int {
	t.Helper()
	spec, ok := scenario.Lookup(r.scenario)
	if !ok {
		t.Fatalf("scenario %q not registered", r.scenario)
	}
	switch r.kind {
	case "explore":
		plan, err := (&explore.Space{Scenario: r.scenario, Static: r.static, Seeds: r.seeds}).Resolve()
		if err != nil {
			t.Fatal(err)
		}
		return len(plan.Points) * len(r.seeds)
	case "sweep":
		if r.buffers != nil {
			return len(r.buffers) * len(r.seeds)
		}
	}
	return len(spec.Buffers) * len(r.seeds)
}

// TestMixCacheSizing checks that missCacheCells sends each repeat to the
// tier it is meant for. A node's cell cache takes in at most every cell
// attached anywhere in the cluster, so if all cells of memAge+1 blocks
// fit, a memAge repeat is a memory hit. It takes in at least the cells of
// the requests sent to it, so if those of the diskAge−1 blocks between a
// run and its diskAge repeat overflow it, the repeat finds the run's cells
// evicted, on disk. (It also takes in the cells it simulates for its peer,
// about half as many again, which is the margin.)
func TestMixCacheSizing(t *testing.T) {
	m := missMix{4}
	n := uint64(len(blockSlots))
	const blocks = 40
	all := make([]int, blocks)
	own := make([][missNodes]int, blocks)
	for i := uint64(0); i < blocks*n; i++ {
		r := m.at(i)
		if isRepeat(m, i) && r.kind == "run" && i/n >= memAge {
			continue // a view hit attaches no cell
		}
		c := cellsOf(t, r)
		all[i/n] += c
		own[i/n][r.node] += c
	}
	for b := diskAge; b < blocks; b++ {
		var upper int
		for k := b - memAge; k <= b; k++ {
			upper += all[k]
		}
		if upper > missCacheCells {
			t.Errorf("blocks %d..%d attach %d cells, more than the %d-cell cache holds", b-memAge, b, upper, missCacheCells)
		}
		for node := 0; node < missNodes; node++ {
			var lower int
			for k := b - diskAge + 1; k < b; k++ {
				lower += own[k][node]
			}
			if lower <= missCacheCells {
				t.Errorf("node %d takes %d cells in blocks %d..%d, too few to evict a %d-cell cache", node, lower, b-diskAge+1, b-1, missCacheCells)
			}
		}
	}
}
