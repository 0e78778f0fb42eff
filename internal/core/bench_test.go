package core_test

import (
	"testing"

	"react/internal/core"
	"react/internal/simtest"
)

func BenchmarkREACTCycle(b *testing.B) {
	cycle := simtest.Cycle(core.New(core.DefaultConfig()))
	for b.Loop() {
		cycle()
	}
}

func TestREACTCycleAllocs(t *testing.T) {
	buf := core.New(core.DefaultConfig())
	if n := testing.AllocsPerRun(100, simtest.Cycle(buf)); n != 0 {
		t.Errorf("REACT Harvest→Draw→Tick cycle: %v allocs/op, want 0", n)
	}
	if top := len(buf.Traits().Guarantee) - 1; buf.Level() != top {
		t.Errorf("primed REACT sits at level %d, want the largest, %d", buf.Level(), top)
	}
}
