package workload

import (
	"testing"

	"react/internal/buffer"
	"react/internal/core"
	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/radio"
	"react/internal/sim"
	"react/internal/simtest"
	"react/internal/trace"
)

// staticBuf builds the plain fixed-size capacitor the edge cases exercise.
func staticBuf(c float64) buffer.Buffer {
	return buffer.NewStatic(buffer.StaticConfig{
		Name: "static", C: c, VMax: 3.6, LeakI: c * 1e-3, VRated: 6.3,
	})
}

// TestPFZeroInterarrivalCompletes drives the degenerate PF configuration —
// a zero mean packet interarrival — through a full simulation. The arrival
// generator resolves it to an empty schedule (the only finite reading), so
// the run must terminate normally with no traffic rather than hang
// generating infinitely many packets.
func TestPFZeroInterarrivalCompletes(t *testing.T) {
	tr := trace.RFCart(1)
	wl := NewPacketForward(4e-6, radio.Arrivals(1, tr.Duration()+120, 0))
	res, err := sim.Run(sim.Config{
		Frontend: harvest.NewFrontend(tr, nil),
		Buffer:   core.New(core.DefaultConfig()),
		Device:   mcu.NewDevice(mcu.DefaultProfile(), wl),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration < tr.Duration() {
		t.Errorf("run ended at %g s, before the %g s trace", res.Duration, tr.Duration())
	}
	m := res.Metrics
	if m["rx"] != 0 || m["tx"] != 0 || m["missed"] != 0 {
		t.Errorf("no-traffic run must move no packets: %v", m)
	}
	simtest.CheckBalance(t, "PF/zero-interarrival", res, 1e-6)
}

// TestRTOnStaticBufferNeverDeadlocks checks §3.4.1's flip side: without a
// level ladder the RT workload transmits blindly — it must keep attempting
// (and mostly failing) rather than waiting forever for a guarantee no
// static buffer can give, and the simulation must still terminate.
func TestRTOnStaticBufferNeverDeadlocks(t *testing.T) {
	tr := trace.Steady("steady 2 mW", 2e-3, 120)
	res, err := sim.Run(sim.Config{
		Frontend: harvest.NewFrontend(tr, nil),
		Buffer:   staticBuf(770e-6),
		Device:   mcu.NewDevice(mcu.DefaultProfile(), NewRadioTransmit(4e-6)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration > tr.Duration()+600+1 {
		t.Errorf("run overran the drain cap: %g s", res.Duration)
	}
	m := res.Metrics
	if m["tx"]+m["failed"] == 0 {
		t.Errorf("a blind static buffer must at least attempt transmissions: %v", m)
	}
	simtest.CheckBalance(t, "RT/static", res, 1e-6)
}

// TestSCAcrossNightGap runs Sense-and-Compute across the full night trace:
// the device browns out in the darkness, deadline accounting must absorb
// the multi-minute gaps (every deadline is sampled, missed, or failed),
// and the PowerOn catch-up must not spin.
func TestSCAcrossNightGap(t *testing.T) {
	tr := trace.Night(1)
	wl := NewSenseCompute(4e-6)
	res, err := sim.Run(sim.Config{
		Frontend: harvest.NewFrontend(tr, nil),
		Buffer:   staticBuf(10e-3),
		Device:   mcu.NewDevice(mcu.DefaultProfile(), wl),
	})
	if err != nil {
		t.Fatal(err)
	}
	m := res.Metrics
	if m["missed"] == 0 {
		t.Errorf("a night gap must cost deadlines: %v", m)
	}
	deadlines := res.Duration/wl.Period + 1
	accounted := m["samples"] + m["missed"] + m["failed"]
	if accounted > deadlines+1 {
		t.Errorf("accounted %g deadlines, only %g occurred", accounted, deadlines)
	}
	// The catch-up loop must have advanced the schedule past the end.
	if wl.next < res.Duration-wl.Period {
		t.Errorf("deadline schedule stalled at %g s of %g", wl.next, res.Duration)
	}
	simtest.CheckBalance(t, "SC/night", res, 1e-6)
}
