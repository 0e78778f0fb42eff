package sim

import (
	"react/internal/buffer"
	"react/internal/mcu"
)

// Probe observes a run's device-level events as they happen: state
// transitions, checkpoint traffic, buffer reconfigurations, dead-time
// fast-forward parks, and cell retirement, plus a series sampled at the
// probe's own cadence. It is the hook behind the timeline recorder and the
// series sampler (internal/obs) and is opt-in per cell via Config.Probe.
//
// Contract:
//
//   - Every timestamp is simulation time derived from tick arithmetic
//     (float64(tick)*dt), never the wall clock — a probe must keep
//     recorded timelines bit-identical across runs (the reactlint
//     determinism contract covers implementations living under sim/).
//   - Callbacks run synchronously on the simulation goroutine, once per
//     observed change, in tick order per cell. A probe must not call back
//     into the engine or retain the device/buffer it is shown.
//   - The cell argument is Config.ProbeCell, so callers that split one
//     logical run across several batches can keep global cell identities.
//   - The nil-probe path is allocation-free and costs only a handful of
//     predictable branches per cell-tick (pinned by
//     TestNilProbeRunAllocsFlat).
type Probe interface {
	// DeviceState reports that the cell's device left state from for state
	// to during the tick ending at sim time t. Transitions that begin and
	// end inside one tick (e.g. a zero-duration backup burst collapsing
	// On->Backing->Off into On->Off) are reported as the net transition;
	// Checkpoint still accounts the burst itself.
	DeviceState(cell int, t float64, from, to mcu.State)
	// Checkpoint reports completed checkpoint bursts: backups and restores
	// are the number of each that finished during the tick ending at t.
	Checkpoint(cell int, t float64, backups, restores int)
	// BufferReconfig reports that the buffer's equivalent capacitance
	// changed to c farads during the tick ending at sim time t — for the
	// REACT buffer, a reconfiguration of the capacitor bank.
	BufferReconfig(cell int, t float64, c float64)
	// FastForward reports a dead-time park: sim time [fromT, toT) was
	// proven inert for this cell and skipped without stepping. Only the
	// batched executor emits these; RunReference steps every tick.
	FastForward(cell int, fromT, toT float64)
	// Retire reports that the cell finished its run at sim time t.
	Retire(cell int, t float64)
	// SampleDT is the sampling interval in seconds, read once per cell;
	// 0 means never.
	SampleDT() float64
	// Sample reports point k, taken on the first tick at or after
	// k*SampleDT.
	Sample(cell int, s Sample)
}

// Sample is one point of a run's sampled series.
type Sample struct {
	T  float64 // seconds
	V  float64 // rail voltage
	On bool    // device powered
	C  float64 // equivalent buffer capacitance, farads
	P  float64 // harvested power being delivered, watts
}

// observer is one cell's probe binding, shared by both executors: the
// change detectors behind the event callbacks and the sample schedule.
// Its methods are only called when probe is non-nil.
type observer struct {
	probe                     Probe
	cell                      int
	sampleDT                  float64
	next                      int // index of the next due sample point
	lastState                 mcu.State
	lastCap                   float64
	lastBackups, lastRestores int
}

func newObserver(cfg Config) observer {
	if cfg.Probe == nil {
		return observer{}
	}
	return observer{
		probe: cfg.Probe, cell: cfg.ProbeCell, sampleDT: cfg.Probe.SampleDT(),
		lastState: cfg.Device.State(), lastCap: cfg.Buffer.Capacitance(),
		lastBackups: cfg.Device.Backups, lastRestores: cfg.Device.Restores,
	}
}

// tick reports what changed during the tick ending at sim time t, then
// takes the sample if one is due: v is the rail voltage after the tick and
// p the power delivered during it. The schedule is an integer index, not
// an accumulated float, which would drift over long runs.
func (o *observer) tick(t, v, p float64, dev *mcu.Device, buf buffer.Buffer) {
	if st := dev.State(); st != o.lastState {
		o.probe.DeviceState(o.cell, t, o.lastState, st)
		o.lastState = st
	}
	if bk, rs := dev.Backups, dev.Restores; bk != o.lastBackups || rs != o.lastRestores {
		o.probe.Checkpoint(o.cell, t, bk-o.lastBackups, rs-o.lastRestores)
		o.lastBackups, o.lastRestores = bk, rs
	}
	cp := buf.Capacitance()
	//lint:reactlint-ignore dtarith change detection, not a tolerance check: any capacitance difference is a reconfiguration event
	if cp != o.lastCap {
		o.probe.BufferReconfig(o.cell, t, cp)
		o.lastCap = cp
	}
	if o.sampleDT > 0 && t >= float64(o.next)*o.sampleDT {
		o.probe.Sample(o.cell, Sample{T: t, V: v, On: dev.Powered(), C: cp, P: p})
		o.next++
	}
}

// wake returns the first tick >= from at which a sample falls due.
func (o *observer) wake(dt float64, from int) int {
	if o.sampleDT <= 0 {
		return tickInf
	}
	return tickAtOrAfter(float64(o.next)*o.sampleDT, dt, from)
}
