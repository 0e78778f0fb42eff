// Package buffer defines the common interface all energy-buffer designs
// implement — the static baselines, the Morphy unified array, and REACT —
// plus the energy ledger used to audit conservation across a simulation.
package buffer

// Ledger accumulates where every joule that entered a buffer went. The
// simulator asserts conservation: Harvested + initial stored = Consumed +
// Clipped + Leaked + SwitchLoss + Overhead + residual stored.
type Ledger struct {
	Harvested  float64 // energy delivered into the buffer by the frontend
	Consumed   float64 // energy delivered to the load
	Clipped    float64 // energy discarded by overvoltage protection
	Leaked     float64 // energy lost to capacitor leakage
	SwitchLoss float64 // energy dissipated in switches/diodes during reconfiguration and conduction
	Overhead   float64 // energy consumed by the buffer's own management hardware
}

// TotalLoss returns the energy lost to all non-load sinks.
func (l *Ledger) TotalLoss() float64 {
	return l.Clipped + l.Leaked + l.SwitchLoss + l.Overhead
}

// Traits are the facts about a buffer that are fixed when it is built. A
// consumer reads them once, when it binds the buffer, and never on the tick
// path.
type Traits struct {
	// Name identifies the design in tables ("770 µF", "REACT", ...).
	Name string
	// OverheadFrac is the fraction of device CPU time consumed by the
	// buffer's management software (0 for designs with no software
	// component or an externally powered controller).
	OverheadFrac float64
	// Guarantee[k] is the usable energy (above the device's minimum
	// operating voltage) that reaching capacitance level k implies, so
	// software can wait for the level that covers an atomic operation
	// (§3.4.1). Guarantee[0] is 0 and the largest level is
	// len(Guarantee)-1. It is nil for a design without a level ladder.
	// The buffer shares the slice with every caller: treat it as read-only.
	Guarantee []float64
	// VEnable is the buffer's wake voltage for the power gate, the Dewdrop
	// (NSDI'11) approach of waking at a task-matched voltage. 0 means the
	// device profile's default.
	VEnable float64
}

// Buffer is an energy store between the harvesting frontend and the device.
//
// Call order within one simulation tick: Harvest, Draw (possibly several),
// then Tick to advance internal processes (diode relaxation, leakage,
// clipping, controller polling).
type Buffer interface {
	// Traits returns the buffer's construction-time facts.
	Traits() Traits
	// Harvest deposits dE joules arriving from the frontend.
	Harvest(dE float64)
	// Draw withdraws up to dE joules for the load and returns the energy
	// actually supplied (less when the buffer runs dry).
	Draw(dE float64) float64
	// OutputVoltage is the supply rail voltage presented to the device.
	OutputVoltage() float64
	// Stored is the total energy currently held, including energy below
	// the device's operating range.
	Stored() float64
	// Capacitance is the present equivalent capacitance at the rail.
	Capacitance() float64
	// Tick advances time by dt seconds. deviceOn reports whether the
	// computational backend is powered, which gates software-polled
	// controllers (REACT's controller runs on the device itself).
	Tick(now, dt float64, deviceOn bool)
	// Ledger exposes the accumulated energy accounting.
	Ledger() *Ledger
	// Level is the current capacitance level, an index into
	// Traits().Guarantee (0 = minimum configuration, and always 0 for a
	// design without a level ladder).
	Level() int
	// QuiescentOff reports whether a power-gated tick would change
	// nothing. The batched simulator uses it to fast-forward dead time:
	// while the device is off, the harvester delivers nothing, and the
	// buffer is quiescent, entire tick stretches are exact no-ops and the
	// clock can jump over them without stepping.
	//
	// It must return true only when Tick(now, dt, false) would leave every
	// bit of buffer state unchanged for any now and dt — typically: no
	// leakable charge, no overvoltage to clip, no pending internal
	// relaxation, and any poll timer already at its device-off reset
	// value. A buffer that cannot prove this returns false and is stepped
	// tick by tick.
	QuiescentOff() bool
}

// LevelFor returns the smallest level whose guarantee covers the requested
// energy, or the largest level (and false) if no level guarantees it.
func LevelFor(guarantee []float64, energy float64) (int, bool) {
	for lvl, g := range guarantee {
		if g >= energy {
			return lvl, true
		}
	}
	return len(guarantee) - 1, false
}
