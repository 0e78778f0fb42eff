package buffer_test

import (
	"testing"

	"react/internal/buffer"
	"react/internal/simtest"
)

// static770 is the paper's smallest static design point.
func static770() *buffer.Static {
	return buffer.NewStatic(buffer.StaticConfig{C: 770e-6, VMax: 3.6, LeakI: 28e-6 * 0.05 * 3.5, VRated: 6.3})
}

func BenchmarkStaticCycle(b *testing.B) {
	cycle := simtest.Cycle(static770())
	for b.Loop() {
		cycle()
	}
}

func TestStaticCycleAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, simtest.Cycle(static770())); n != 0 {
		t.Errorf("static Harvest→Draw→Tick cycle: %v allocs/op, want 0", n)
	}
}
