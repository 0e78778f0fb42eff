package morphy_test

import (
	"testing"

	"react/internal/morphy"
	"react/internal/simtest"
)

func BenchmarkMorphyCycle(b *testing.B) {
	cycle := simtest.Cycle(morphy.New(morphy.DefaultConfig()))
	for b.Loop() {
		cycle()
	}
}

func TestMorphyCycleAllocs(t *testing.T) {
	buf := morphy.New(morphy.DefaultConfig())
	if n := testing.AllocsPerRun(100, simtest.Cycle(buf)); n != 0 {
		t.Errorf("Morphy Harvest→Draw→Tick cycle: %v allocs/op, want 0", n)
	}
	if top := len(buf.Traits().Guarantee) - 1; buf.Level() != top {
		t.Errorf("primed Morphy sits at level %d, want the largest, %d", buf.Level(), top)
	}
}
