package buffer

import (
	"fmt"
	"math"

	"react/internal/circuit"
)

// Dewdrop is the adaptive-enable-voltage baseline (Buettner et al.,
// NSDI'11) the paper discusses in §2.4: a single static capacitor whose
// wake-up voltage is matched to the energy of the next task instead of a
// fixed platform threshold. That makes all stored energy fungible — the
// system wakes exactly when the pending work is affordable — but, as the
// paper notes, "still suffers from the reactivity-longevity tradeoff of
// capacitor size": the capacitor is as fixed as any static buffer.
type Dewdrop struct {
	cap    circuit.Capacitor
	vMin   float64
	vCeil  float64
	traits Traits
	ledger Ledger
}

// DewdropConfig describes a Dewdrop buffer.
type DewdropConfig struct {
	Name   string
	C      float64 // farads
	VMax   float64 // overvoltage clip
	VMin   float64 // device brownout voltage (task energy is usable above it)
	LeakI  float64
	VRated float64
	// TaskEnergy is the energy the next quantum of work needs; the enable
	// voltage is derived from it. Software updates it as tasks change.
	TaskEnergy float64
	// VEnableCeil bounds the computed enable voltage (a task too big for
	// the capacitor would otherwise push it past the clip voltage).
	VEnableCeil float64
}

// NewDewdrop builds an adaptive-enable buffer.
func NewDewdrop(cfg DewdropConfig) *Dewdrop {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("Dewdrop %.0f µF", cfg.C*1e6)
	}
	d := &Dewdrop{
		traits: Traits{Name: name},
		vMin:   cfg.VMin,
		vCeil:  cfg.VEnableCeil,
		cap: circuit.Capacitor{
			C: cfg.C, VMax: cfg.VMax,
			LeakI: cfg.LeakI, VRated: cfg.VRated,
		},
	}
	if d.vCeil == 0 {
		d.vCeil = cfg.VMax
	}
	d.SetTaskEnergy(cfg.TaskEnergy)
	return d
}

var _ Buffer = (*Dewdrop)(nil)

// SetTaskEnergy updates the pending-task energy that drives the enable
// voltage (Dewdrop's software interface) and recomputes the traits from
// it. Call it before the run: a simulated device reads a buffer's traits
// once, when it binds the buffer.
//
// Dewdrop has exactly one capacitance configuration, so its level ladder is
// binary: level 1 means the task-matched enable voltage is reached and the
// pending task's energy is guaranteed. That lets the RT/PF workloads gate
// atomic operations the way Dewdrop's runtime does — run one task per
// wake-up instead of attempting doomed repeats. The enable voltage is the
// one at which the capacitor holds the task energy above the brownout
// floor, √(2E/C + V_min²), clamped to [V_min, the configured ceiling].
func (d *Dewdrop) SetTaskEnergy(e float64) {
	d.traits.Guarantee = []float64{0, e}
	switch v := math.Sqrt(2*e/d.cap.C + d.vMin*d.vMin); {
	case d.cap.C == 0 || v > d.vCeil:
		d.traits.VEnable = d.vCeil
	case v < d.vMin:
		d.traits.VEnable = d.vMin
	default:
		d.traits.VEnable = v
	}
}

// Traits implements Buffer.
func (d *Dewdrop) Traits() Traits { return d.traits }

// Harvest implements Buffer.
func (d *Dewdrop) Harvest(dE float64) {
	if dE <= 0 {
		return
	}
	d.ledger.Harvested += dE
	d.cap.Store(dE, 0)
	d.ledger.Clipped += d.cap.Clip()
}

// Draw implements Buffer.
func (d *Dewdrop) Draw(dE float64) float64 {
	got := d.cap.Draw(dE)
	d.ledger.Consumed += got
	return got
}

// OutputVoltage implements Buffer.
func (d *Dewdrop) OutputVoltage() float64 { return d.cap.Voltage() }

// Stored implements Buffer.
func (d *Dewdrop) Stored() float64 { return d.cap.Energy() }

// Capacitance implements Buffer.
func (d *Dewdrop) Capacitance() float64 { return d.cap.C }

// Tick implements Buffer.
func (d *Dewdrop) Tick(now, dt float64, deviceOn bool) {
	d.ledger.Leaked += d.cap.Leak(dt)
}

// QuiescentOff implements Buffer: like Static, the off-tick is leakage
// only.
func (d *Dewdrop) QuiescentOff() bool { return d.cap.LeakI <= 0 || d.cap.Q <= 0 }

// Ledger implements Buffer.
func (d *Dewdrop) Ledger() *Ledger { return &d.ledger }

// Level implements Buffer: 1 once the rail reaches the enable voltage.
func (d *Dewdrop) Level() int {
	if d.cap.Voltage() >= d.traits.VEnable-1e-9 {
		return 1
	}
	return 0
}
