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
		t.Errorf("static executor-order cycle: %v allocs/op, want 0", n)
	}
}

// dewdrop22 is the Dewdrop preset's capacitor, matched to a 7 mJ task.
func dewdrop22() *buffer.Dewdrop {
	return buffer.NewDewdrop(buffer.DewdropConfig{
		C: 2.2e-3, VMax: 3.6, VMin: 1.8, LeakI: 2.2e-3 * 1e-3, VRated: 6.3, TaskEnergy: 7e-3,
	})
}

func BenchmarkDewdropCycle(b *testing.B) {
	cycle := simtest.Cycle(dewdrop22())
	for b.Loop() {
		cycle()
	}
}

func TestDewdropCycleAllocs(t *testing.T) {
	buf := dewdrop22()
	if n := testing.AllocsPerRun(100, simtest.Cycle(buf)); n != 0 {
		t.Errorf("Dewdrop executor-order cycle: %v allocs/op, want 0", n)
	}
	if buf.Level() != 1 {
		t.Errorf("primed Dewdrop sits at level %d, want its task level, 1", buf.Level())
	}
}
