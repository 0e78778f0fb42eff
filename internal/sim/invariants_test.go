package sim_test

import (
	"math"
	"testing"

	"react/internal/buffer"
	"react/internal/core"
	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/obs"
	"react/internal/sim"
	"react/internal/simtest"
	"react/internal/trace"
	"react/internal/workload"
)

// TestRunUpholdsPerTickInvariants drives a full REACT run through the
// shared invariant auditor: per-tick energy conservation, bounded rail
// voltage, monotonic simulated time, and a physical recorded series.
func TestRunUpholdsPerTickInvariants(t *testing.T) {
	buf, rec := simtest.Check(core.New(core.DefaultConfig()), 0)
	sampler := obs.NewSampler(0.5, nil)
	res, err := sim.Run(sim.Config{
		Frontend: harvest.NewFrontend(trace.RFCart(1), nil),
		Buffer:   buf,
		Device:   mcu.NewDevice(mcu.DefaultProfile(), workload.NewDataEncryption(0.6e-3)),
		Probe:    sampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Error(err)
	}
	if rec.Ticks() == 0 {
		t.Fatal("auditor saw no ticks")
	}
	simtest.CheckBalance(t, "REACT/DE/RF Cart", res, 1e-6)
	simtest.CheckSamples(t, "REACT/DE/RF Cart", sampler.Series(0), 0)
	if res.Metrics["blocks"] == 0 {
		t.Error("wrapped run did no work — the auditor must be behaviour-preserving")
	}
}

// TestZeroHarvestPreChargedRunIsConserved pins the energy-balance
// normalization for the cold-start/energy-attack family: a buffer that
// starts charged and harvests nothing merely spends its initial energy, and
// must report a (near-)zero conservation error — not a huge one from
// normalizing residual stored energy against a zero harvest.
func TestZeroHarvestPreChargedRunIsConserved(t *testing.T) {
	buf := buffer.NewStatic(buffer.StaticConfig{Name: "pre-charged 10 mF", C: 10e-3, VMax: 3.6})
	const initial = 0.060 // 3.46 V on 10 mF: above the 3.3 V enable
	simtest.PreCharge(buf, initial)
	dark := &trace.Trace{Name: "dark", DT: 1, Power: make([]float64, 30)}
	res, err := sim.Run(sim.Config{
		Frontend: harvest.NewFrontend(dark, nil),
		Buffer:   buf,
		Device:   mcu.NewDevice(mcu.DefaultProfile(), workload.NewDataEncryption(0.6e-3)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Harvested != 0 {
		t.Fatalf("harvested %g J from a dark trace", res.Ledger.Harvested)
	}
	if math.Abs(res.InitialStored-initial) > 1e-12 {
		t.Errorf("InitialStored %g, want the pre-charge %g", res.InitialStored, initial)
	}
	if res.OnTime == 0 {
		t.Fatal("the pre-charge must power the device: the run moved no energy")
	}
	simtest.CheckBalance(t, "pre-charged dark run", res, 1e-6)
}

// TestNilProbeRunAllocsFlat pins the nil-probe executor path allocation
// free per tick: sim.Run allocates for setup and the result only, so its
// allocation count must not grow when the trace doubles in length.
func TestNilProbeRunAllocsFlat(t *testing.T) {
	allocs := func(bufName string, seconds int) float64 {
		full := trace.RFCart(1)
		tr := &trace.Trace{Name: full.Name, DT: full.DT, Power: full.Power[:int(float64(seconds)/full.DT)]}
		cfgs := []sim.Config{
			presetCell(t, tr, bufName, "DE", 1e-3, 1),
			presetCell(t, tr, bufName, "DE", 1e-3, 1),
		}
		run := 0
		return testing.AllocsPerRun(1, func() {
			if _, err := sim.Run(cfgs[run]); err != nil {
				t.Fatal(err)
			}
			run++
		})
	}
	for _, bufName := range []string{"REACT", "770 µF", "Morphy"} {
		short, long := allocs(bufName, 20), allocs(bufName, 40)
		t.Logf("%s/DE: %v allocs over 20 s, %v over 40 s", bufName, short, long)
		if long != short {
			t.Errorf("%s/DE: %v allocs over a 20 s trace but %v over 40 s; the nil-probe path allocates per tick", bufName, short, long)
		}
	}
}
