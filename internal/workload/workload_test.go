package workload

import (
	"math"
	"testing"

	"react/internal/mcu"
	"react/internal/radio"
	"react/internal/timekeeper"
)

func env(v, c float64) *mcu.Env {
	return &mcu.Env{Voltage: v, VMin: 1.8, Capacitance: c}
}

func TestDataEncryptionCompletesBlocks(t *testing.T) {
	w := NewDataEncryption(1e-3)
	e := env(3.3, 1e-3)
	for i := 0; i < 1000; i++ {
		e.Now = float64(i) * 1e-3
		if got := w.Step(e, 1e-3); got != 1e-3 {
			t.Fatalf("DE current %g, want active", got)
		}
	}
	// 1 s of CPU at 250 ms per block = 4 blocks.
	if got := w.Metrics()["blocks"]; got != 4 {
		t.Errorf("blocks %g, want 4", got)
	}
	if w.Digest() == [16]byte{} {
		t.Error("completed blocks must actually run the cipher")
	}
}

func TestDataEncryptionOverheadSlowsProgress(t *testing.T) {
	plain := NewDataEncryption(1e-3)
	taxed := NewDataEncryption(1e-3)
	e := env(3.3, 1e-3)
	taxedEnv := env(3.3, 1e-3)
	taxedEnv.OverheadFrac = 0.018
	for i := 0; i < 100000; i++ {
		plain.Step(e, 1e-3)
		taxed.Step(taxedEnv, 1e-3)
	}
	p, q := plain.Metrics()["blocks"], taxed.Metrics()["blocks"]
	penalty := 1 - q/p
	if math.Abs(penalty-0.018) > 0.01 {
		t.Errorf("software penalty %.3f, want ≈0.018", penalty)
	}
}

func TestDataEncryptionLosesInFlightBlock(t *testing.T) {
	w := NewDataEncryption(1e-3)
	e := env(3.3, 1e-3)
	for i := 0; i < 200; i++ { // 200 ms: most of a block
		w.Step(e, 1e-3)
	}
	w.PowerLost(0.2)
	for i := 0; i < 100; i++ { // another 100 ms after reboot
		w.Step(e, 1e-3)
	}
	if got := w.Metrics()["blocks"]; got != 0 {
		t.Errorf("blocks %g, want 0 — the in-flight block was volatile", got)
	}
}

func TestSenseComputeSamplesOnDeadline(t *testing.T) {
	w := NewSenseCompute(4e-6)
	e := env(3.3, 1e-3)
	dt := 1e-3
	for i := 0; i <= 11000; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	// Deadlines at 0, 5, 10 s within 11 s.
	if got := w.Metrics()["samples"]; got != 3 {
		t.Errorf("samples %g, want 3", got)
	}
	if got := w.Metrics()["missed"]; got != 0 {
		t.Errorf("missed %g, want 0", got)
	}
}

func TestSenseComputeSleepCurrentIncludesMic(t *testing.T) {
	w := NewSenseCompute(4e-6)
	e := env(3.3, 1e-3)
	e.Now = 2.5 // between deadlines
	w.next = 5  // pretend the first deadline passed
	if got := w.Step(e, 1e-3); got <= 4e-6 {
		t.Errorf("sleep current %g should include the always-on microphone", got)
	}
}

func TestSenseComputeMissesWhileOff(t *testing.T) {
	w := NewSenseCompute(4e-6)
	w.PowerOn(17) // boot at t=17: deadlines 0, 5, 10, 15 are gone
	if got := w.Metrics()["missed"]; got != 4 {
		t.Errorf("missed %g, want 4", got)
	}
}

func TestSenseComputeInterruptedBurstFails(t *testing.T) {
	w := NewSenseCompute(4e-6)
	e := env(3.3, 1e-3)
	e.Now = 0
	w.Step(e, 1e-3) // deadline at 0 starts a burst
	w.PowerLost(0.001)
	if got := w.Metrics()["failed"]; got != 1 {
		t.Errorf("failed %g, want 1", got)
	}
	if got := w.Metrics()["samples"]; got != 0 {
		t.Errorf("samples %g, want 0", got)
	}
}

func TestRadioTransmitBlindWithoutLevels(t *testing.T) {
	w := NewRadioTransmit(4e-6)
	e := env(3.3, 770e-6) // no guarantee table: static buffer semantics
	if got := w.Step(e, 1e-3); got != w.Radio.TX.Current {
		t.Errorf("static buffer should transmit blindly, current %g", got)
	}
}

// ladder is a fixed guarantee table for gating tests: levels 0..10 at
// 2 mJ per level.
var ladder = []float64{0, 2e-3, 4e-3, 6e-3, 8e-3, 10e-3, 12e-3, 14e-3, 16e-3, 18e-3, 20e-3}

func TestRadioTransmitWaitsForLevel(t *testing.T) {
	w := NewRadioTransmit(4e-6)
	e := env(3.3, 770e-6)
	e.Guarantee = ladder
	if got := w.Step(e, 1e-3); got != w.SleepI {
		t.Errorf("should sleep awaiting the level guarantee, current %g", got)
	}
	// Level satisfied and the instantaneous estimate covers the cost.
	e.Level = 10
	e.Capacitance = 10e-3
	if got := w.Step(e, 1e-3); got != w.Radio.TX.Current {
		t.Errorf("should transmit once guaranteed, current %g", got)
	}
}

func TestRadioTransmitStaleLevelBlocksTransmit(t *testing.T) {
	w := NewRadioTransmit(4e-6)
	e := env(2.0, 770e-6) // level high but rail nearly drained
	e.Guarantee, e.Level = ladder, 10
	if got := w.Step(e, 1e-3); got != w.SleepI {
		t.Errorf("stale level must not trigger a doomed transmission, current %g", got)
	}
}

func TestRadioTransmitCountsCompletions(t *testing.T) {
	w := NewRadioTransmit(4e-6)
	e := env(3.3, 10e-3)
	ticks := int(w.Radio.TX.Duration/1e-3) + 2
	for i := 0; i < ticks; i++ {
		w.Step(e, 1e-3)
	}
	if got := w.Metrics()["tx"]; got != 1 {
		t.Errorf("tx %g, want 1", got)
	}
}

func TestRadioTransmitFailureCounted(t *testing.T) {
	w := NewRadioTransmit(4e-6)
	e := env(3.3, 10e-3)
	w.Step(e, 1e-3) // starts TX
	w.PowerLost(0.001)
	if got := w.Metrics()["failed"]; got != 1 {
		t.Errorf("failed %g, want 1", got)
	}
	if got := w.Metrics()["tx"]; got != 0 {
		t.Errorf("tx %g, want 0", got)
	}
}

func pfWith(arrivals []radio.Packet) *PacketForward {
	return NewPacketForward(4e-6, arrivals)
}

func TestPacketForwardReceivesOnArrival(t *testing.T) {
	w := pfWith([]radio.Packet{{Arrival: 0.01, Seq: 0}})
	e := env(3.3, 10e-3)
	dt := 1e-3
	for i := 0; i <= 100; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	if got := w.Metrics()["rx"]; got != 1 {
		t.Errorf("rx %g, want 1", got)
	}
}

func TestPacketForwardTransmitsQueued(t *testing.T) {
	w := pfWith([]radio.Packet{{Arrival: 0.01, Seq: 0}})
	e := env(3.3, 10e-3)
	dt := 1e-3
	for i := 0; i <= 1000; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	if got := w.Metrics()["tx"]; got != 1 {
		t.Errorf("tx %g, want 1", got)
	}
}

func TestPacketForwardMissesWhileOff(t *testing.T) {
	w := pfWith([]radio.Packet{{Arrival: 1}, {Arrival: 2}, {Arrival: 30}})
	w.PowerOn(10) // boots after the first two packets passed
	if got := w.Metrics()["missed"]; got != 2 {
		t.Errorf("missed %g, want 2", got)
	}
}

func TestPacketForwardRxPreemptsTxWait(t *testing.T) {
	// Two arrivals; the workload is gated on a transmit level it never
	// reaches, but must still receive the second packet (§5.4.1 fungible
	// energy: receive preempts the transmit reservation).
	w := pfWith([]radio.Packet{{Arrival: 0.01}, {Arrival: 1.0}})
	e := env(3.3, 10e-3)
	e.Guarantee = ladder // at level 0 the transmit guarantee is never satisfied
	dt := 1e-3
	for i := 0; i <= 2000; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	if got := w.Metrics()["rx"]; got != 2 {
		t.Errorf("rx %g, want 2 — receive must preempt the transmit wait", got)
	}
	if got := w.Metrics()["tx"]; got != 0 {
		t.Errorf("tx %g, want 0 while gated", got)
	}
}

func TestPacketForwardInterruptedRxLosesPacket(t *testing.T) {
	w := pfWith([]radio.Packet{{Arrival: 0.01}})
	e := env(3.3, 10e-3)
	e.Now = 0.01
	w.Step(e, 1e-3) // starts the receive window
	w.PowerLost(0.011)
	m := w.Metrics()
	if m["rx"] != 0 || m["rx_failed"] != 1 || m["missed"] != 1 {
		t.Errorf("interrupted receive misaccounted: %v", m)
	}
}

func TestPacketForwardInterruptedTxDropsPacket(t *testing.T) {
	w := pfWith([]radio.Packet{{Arrival: 0.01}})
	e := env(3.3, 10e-3)
	dt := 1e-3
	// Receive the packet, then start transmitting.
	for i := 0; i <= 100; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	w.PowerLost(0.2)
	m := w.Metrics()
	if m["tx_failed"] != 1 {
		t.Errorf("tx_failed %g, want 1", m["tx_failed"])
	}
	// The packet is gone: running on gives no retry.
	for i := 200; i <= 1000; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	if m := w.Metrics(); m["tx"] != 0 {
		t.Errorf("tx %g, want 0 after the doomed attempt", m["tx"])
	}
}

func TestWorkloadNames(t *testing.T) {
	if NewDataEncryption(1e-3).Name() != "DE" ||
		NewSenseCompute(1e-6).Name() != "SC" ||
		NewRadioTransmit(1e-6).Name() != "RT" ||
		pfWith(nil).Name() != "PF" {
		t.Error("workload names must match the paper's benchmark names")
	}
}

func TestSenseComputeWithTimekeeperAccumulatesSkew(t *testing.T) {
	w := NewSenseCompute(4e-6)
	w.Clock = timekeeper.DefaultClock()
	e := env(3.3, 1e-3)
	dt := 1e-3
	// Run 2 s, lose power for 40 s, come back: the remanence estimate is
	// imperfect, so the believed clock skews but the schedule resumes.
	for i := 0; i <= 2000; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	w.PowerLost(2.0)
	w.PowerOn(42.0)
	for i := 42000; i <= 60000; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	m := w.Metrics()
	if m["samples"] < 3 {
		t.Errorf("sampling should resume after the outage, got %g", m["samples"])
	}
	if m["missed"] < 7 {
		t.Errorf("deadlines during the 40 s outage are missed, got %g", m["missed"])
	}
	if _, ok := m["timing_err_mean"]; !ok {
		t.Error("timing error metric missing")
	}
}

func TestSenseComputeSaturatedClockRestartsSchedule(t *testing.T) {
	w := NewSenseCompute(4e-6)
	w.Clock = timekeeper.DefaultClock()
	e := env(3.3, 1e-3)
	e.Now = 0
	w.Step(e, 1e-3)
	w.PowerLost(0.5)
	// An outage far past the clock's range: software cannot know how long
	// it was dark and restarts the schedule from its believed present.
	w.PowerOn(2000)
	if w.next <= 2000+w.skew {
		t.Errorf("schedule must restart in the future, next=%g", w.next)
	}
}

func TestMLInferenceProgressAndCheckpointing(t *testing.T) {
	w := NewMLInference(4e-6)
	e := env(3.3, 17e-3) // no level ladder: segments start whenever stepped
	dt := 1e-3
	// One segment is SegTime of compute plus CkptTime of write; run long
	// enough for several full inferences.
	for i := 0; i < 20000; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	m := w.Metrics()
	if m["inferences"] < 4 {
		t.Errorf("expected several inferences on steady power, got %v", m)
	}
	if m["ckpts"] < m["inferences"]*float64(w.Segments) {
		t.Errorf("every segment must checkpoint: %v", m)
	}
}

func TestMLInferencePowerLossLosesOnlyInFlightSegment(t *testing.T) {
	w := NewMLInference(4e-6)
	e := env(3.3, 17e-3)
	dt := 1e-3
	// Complete exactly one segment (compute + checkpoint), then die
	// mid-way through the second.
	steps := int((w.SegTime+w.Ckpt.Time)/dt) + 2
	for i := 0; i < steps; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	if w.Metrics()["ckpts"] != 1 {
		t.Fatalf("setup: want exactly 1 checkpoint, got %v", w.Metrics())
	}
	for i := 0; i < 100; i++ { // into the second segment
		w.Step(e, dt)
	}
	w.PowerLost(e.Now)
	m := w.Metrics()
	if m["lost_segments"] != 1 {
		t.Errorf("in-flight segment must be lost: %v", m)
	}
	if m["ckpts"] != 1 {
		t.Errorf("checkpointed progress must survive power loss: %v", m)
	}
	if w.inSeg || w.inCkpt {
		t.Error("power loss must clear volatile execution state")
	}
}

func TestMLInferenceWaitsForLongevityGuarantee(t *testing.T) {
	e := env(3.3, 770e-6)
	e.Guarantee = ladder
	w := NewMLInference(4e-6)
	if i := w.Step(e, 1e-3); i != w.SleepI {
		t.Errorf("below the guaranteed level the workload must sleep, drew %g", i)
	}
	e.Level = 10
	e.Capacitance = 17e-3
	if i := w.Step(e, 1e-3); i != w.InferI {
		t.Errorf("at a guaranteed level the segment must start, drew %g", i)
	}
}

func TestMixedDutySensesThenFlushes(t *testing.T) {
	w := NewMixedDuty(4e-6)
	e := env(3.3, 17e-3)
	dt := 1e-3
	// Run past BatchN sensing periods plus slack for the flush.
	steps := int(float64(w.BatchN+2)*w.Period/dt) + int(w.Radio.TX.Duration/dt) + 100
	for i := 0; i < steps; i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	m := w.Metrics()
	if m["samples"] < float64(w.BatchN) {
		t.Fatalf("sensing cadence broken: %v", m)
	}
	if m["tx"] < 1 {
		t.Errorf("a full batch must be transmitted: %v", m)
	}
	if m["backlog"] >= float64(w.BatchN) {
		t.Errorf("flush must drain the backlog below one batch: %v", m)
	}
}

func TestMixedDutyPowerLossKeepsPendingSamples(t *testing.T) {
	w := NewMixedDuty(4e-6)
	e := env(3.3, 17e-3)
	dt := 1e-3
	// Collect a few samples, then lose power mid-burst.
	for i := 0; i < int(2.5*w.Period/dt); i++ {
		e.Now = float64(i) * dt
		w.Step(e, dt)
	}
	pendingBefore := w.pending
	if pendingBefore == 0 {
		t.Fatal("setup: expected pending samples")
	}
	e.Now += w.Period
	w.Step(e, dt) // start a burst
	w.PowerLost(e.Now)
	if w.pending != pendingBefore {
		t.Errorf("FRAM-held samples must survive: %d != %d", w.pending, pendingBefore)
	}
	if w.Metrics()["failed"] != 1 {
		t.Errorf("interrupted burst must count as failed: %v", w.Metrics())
	}
	w.PowerOn(e.Now + 10*w.Period)
	if w.Metrics()["missed"] < 5 {
		t.Errorf("deadlines during the outage must be missed: %v", w.Metrics())
	}
}

func TestDataEncryptionBackupFreezesProgress(t *testing.T) {
	w := NewDataEncryption(0.6e-3)
	e := env(3.3, 10e-3)
	// Accumulate a partial block, then suspend for a checkpoint: the
	// progress must survive (pure compute is freezeable), unlike a raw
	// power loss which discards it.
	w.Step(e, 100e-3)
	if w.progress <= 0 {
		t.Fatal("setup: expected partial-block progress")
	}
	before := w.progress
	w.Backup(0.1)
	if w.progress != before {
		t.Errorf("backup discarded the partial block: %g -> %g", before, w.progress)
	}
	w.PowerLost(0.2)
	if w.progress != 0 {
		t.Error("power loss must discard the partial block")
	}
}

func TestMixedDutyLostWorkAccounting(t *testing.T) {
	w := NewMixedDuty(4e-6)
	e := env(3.3, 10e-3)
	e.Now = w.Period // trigger a sensing burst
	w.Step(e, 1e-3)
	if !w.inBurst {
		t.Fatal("setup: expected an in-flight burst")
	}
	w.PowerLost(e.Now)
	if w.LostWork() != 1 {
		t.Errorf("a burst cut by power loss drops its sample: LostWork = %g, want 1", w.LostWork())
	}
	if w.Metrics()["failed"] != 1 {
		t.Errorf("failure counter must still move: %v", w.Metrics())
	}

	// A checkpoint suspension accounts identically; an aborted batch
	// transmission loses no samples (they survive in FRAM).
	e.Now += w.Period
	w.Step(e, 1e-3)
	if !w.inBurst {
		t.Fatal("setup: expected a second burst")
	}
	w.Backup(e.Now)
	if w.LostWork() != 2 {
		t.Errorf("a burst cut by a backup drops its sample: LostWork = %g, want 2", w.LostWork())
	}
	w.pending = w.BatchN
	w.inTX = true
	w.Backup(e.Now + 0.01)
	if w.LostWork() != 2 {
		t.Errorf("an aborted transmission must lose no samples: LostWork = %g", w.LostWork())
	}
	if w.Metrics()["tx_failed"] != 1 {
		t.Errorf("aborted transmission must count as failed: %v", w.Metrics())
	}
	if w.pending != w.BatchN {
		t.Error("pending samples must survive the aborted flush")
	}
}
