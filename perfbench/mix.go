package main

import (
	"math/rand/v2"

	"react/internal/explore"
)

// request is one generated reactd operation. The program sees only these:
// every field is a pure function of the workload seed and the request's
// index in the sequence.
type request struct {
	kind     string // "run", "sweep" or "explore"
	scenario string
	seeds    []uint64
	dt       float64  // timestep override; 0 keeps the scenario's
	buffers  []string // sweep buffer subset; nil is every buffer
	static   *explore.StaticAxis
	node     int // the node whose client submits it
}

// stratified returns entry i%len(block) of a per-block shuffle of block:
// each block of len(block) consecutive requests holds every entry once,
// in an order drawn from the seed, the stream and the block number, so a
// short run still sees the intended proportions.
func stratified(seed, stream, i uint64, block []int) int {
	n := uint64(len(block))
	perm := rand.New(rand.NewPCG(seed, stream^(i/n))).Perm(len(block))
	return block[perm[i%n]]
}

// missTemplates are the fresh slots of a block: sweeps of several seeds
// (one lockstep batch per seed and owner) and single runs, over cheap
// scenarios, plus one exploration (a 3-point static-capacitance lattice).
// Every one carries seeds no earlier request carried. Scenarios stepped at
// 1 ms run at missDT, which halves every cell's ticks without changing the
// work per tick, so a run collects a few hundred requests;
// night-heavy-solar keeps its own 5 ms step. cold-start's sweep leaves
// Morphy out so its batches can fast-forward the 90 s of darkness.
var missTemplates = []request{
	{kind: "sweep", scenario: "cold-start", buffers: []string{"770 µF", "10 mF", "REACT", "Dewdrop"}, seeds: make([]uint64, 2), dt: missDT},
	{kind: "sweep", scenario: "night-heavy-solar", buffers: []string{"770 µF", "17 mF"}, seeds: make([]uint64, 2)},
	{kind: "sweep", scenario: "tiny-cap-degraded", seeds: make([]uint64, 2), dt: missDT},
	{kind: "sweep", scenario: "energy-attack", buffers: []string{"770 µF", "10 mF"}, seeds: make([]uint64, 3), dt: missDT},
	{kind: "sweep", scenario: "ckpt-odab-de", seeds: make([]uint64, 3), dt: missDT},
	{kind: "run", scenario: "ckpt-odab-de", seeds: make([]uint64, 1), dt: missDT},
	{kind: "run", scenario: "tiny-cap-degraded", seeds: make([]uint64, 1), dt: missDT},
	{kind: "run", scenario: "cold-start", seeds: make([]uint64, 1), dt: missDT},
	{kind: "run", scenario: "ckpt-periodic-mix", seeds: make([]uint64, 1), dt: missDT},
	{kind: "run", scenario: "energy-attack", seeds: make([]uint64, 1), dt: missDT},
	{kind: "explore", scenario: "energy-attack", seeds: make([]uint64, 1), dt: missDT,
		static: &explore.StaticAxis{From: 330e-6, To: 10e-3, Points: 3}},
}

// missRepeats are the hit slots of a block. Each asks again for the cells
// of a run slot (an index into missTemplates) of the block age blocks
// back, on the node that ran it: a repeated run is answered by the run
// view index, and a one-seed sweep over a run's cells — a new view — by
// the memory cell tier (age memAge) or, once missCacheCells has evicted
// them, by the disk tier (age diskAge): the node's own store.Get for the
// cells it owns, the owner's for the rest. In the first age blocks of the
// sequence there is nothing to repeat, and the slot sends its own unseen
// seeds instead.
var missRepeats = []struct {
	kind string
	slot int
	age  uint64
}{
	{"run", 5, memAge},
	{"run", 9, memAge},
	{"sweep", 7, memAge},
	{"sweep", 8, diskAge},
}

const (
	missDT = 2e-3
	// missCacheCells is each node's Config.CacheCells: it holds every cell
	// a node sees in memAge+1 blocks, and less than a node's own requests
	// bring in over diskAge−1 blocks (mix_test.go checks both).
	missCacheCells = 210
	memAge         = 2
	diskAge        = 8
	missNodes      = 2
	missStream     = 0x6b696e64
)

// blockSlots is the slot order a block is shuffled from: the fresh
// templates, then the repeats.
var blockSlots = func() []int {
	b := make([]int, len(missTemplates)+len(missRepeats))
	for i := range b {
		b[i] = i
	}
	return b
}()

// missMix generates the reactd workload's request sequence.
type missMix struct{ seed uint64 }

// fresh is template t in slot slot of block b, with its unseen seeds —
// seed<<32 + (b·slots + slot)<<3 + k + 1; set-up's warm-up stays below
// 1<<32 — sent to a node that alternates with the block and the slot.
func (m missMix) fresh(b uint64, slot int, t request) request {
	seeds := make([]uint64, len(t.seeds))
	for k := range seeds {
		seeds[k] = m.seed<<32 + (b*uint64(len(blockSlots))+uint64(slot))<<3 + uint64(k) + 1
	}
	t.seeds = seeds
	t.node = int((b + uint64(slot)) % missNodes)
	return t
}

func (m missMix) at(i uint64) request {
	b := i / uint64(len(blockSlots))
	slot := stratified(m.seed, missStream, i, blockSlots)
	if slot < len(missTemplates) {
		return m.fresh(b, slot, missTemplates[slot])
	}
	rp := missRepeats[slot-len(missTemplates)]
	src := m.fresh(b, slot, missTemplates[rp.slot])
	if b >= rp.age {
		src = m.fresh(b-rp.age, rp.slot, missTemplates[rp.slot])
	}
	return request{kind: rp.kind, scenario: src.scenario, seeds: src.seeds, dt: src.dt, node: src.node}
}
