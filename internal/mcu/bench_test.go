package mcu_test

import (
	"testing"

	"react/internal/core"
	"react/internal/mcu"
	"react/internal/scenario"
	"react/internal/simtest"
	"react/internal/trace"
)

// onStep returns one On-state device tick running the bench workload: the
// device steps a REACT buffer primed by simtest.Cycle (largest
// configuration, rail at the clip), and the energy each step draws is
// harvested straight back, so repeated calls stay On at the same operating
// point. Each call advances simulated time by 1 ms.
func onStep(tb testing.TB, bench string) (func(), *mcu.Device) {
	tb.Helper()
	buf := core.New(core.DefaultConfig())
	simtest.Cycle(buf)
	prof := mcu.DefaultProfile()
	wl, err := scenario.WorkloadSpec{Bench: bench}.Build(trace.Steady("bench", 1e-3, 3600), 1, prof)
	if err != nil {
		tb.Fatal(err)
	}
	dev := mcu.NewDevice(prof, wl)
	const dt = 1e-3
	tick := 0
	step := func() {
		l := buf.Ledger()
		before := l.Consumed
		dev.Step(float64(tick)*dt, dt, buf)
		buf.Harvest(l.Consumed - before)
		tick++
	}
	for dev.State() != mcu.On && tick < 1000 {
		step()
	}
	if dev.State() != mcu.On {
		tb.Fatalf("%s: device still %v after %d ticks on a primed REACT", bench, dev.State(), tick)
	}
	return step, dev
}

var benches = []string{"DE", "SC", "RT", "PF"}

func BenchmarkDeviceStep(b *testing.B) {
	for _, bench := range benches {
		b.Run(bench, func(b *testing.B) {
			step, dev := onStep(b, bench)
			for b.Loop() {
				step()
			}
			if dev.State() != mcu.On {
				b.Errorf("%s: device left the On state (%v)", bench, dev.State())
			}
		})
	}
}

func TestDeviceStepAllocs(t *testing.T) {
	for _, bench := range benches {
		step, dev := onStep(t, bench)
		if n := testing.AllocsPerRun(1000, step); n != 0 {
			t.Errorf("%s: On-state Device.Step: %v allocs/op, want 0", bench, n)
		}
		if dev.State() != mcu.On {
			t.Errorf("%s: device left the On state (%v)", bench, dev.State())
		}
	}
}
