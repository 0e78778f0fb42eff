package buffer

import (
	"fmt"

	"react/internal/circuit"
)

// Static is a fixed-size buffer capacitor — the conventional batteryless
// design point the paper's background section analyses. It charges whenever
// the harvester delivers power, clips at its maximum operating voltage
// (discarding surplus as heat), and leaks continuously.
type Static struct {
	cap    circuit.Capacitor
	name   string
	ledger Ledger
}

// StaticConfig describes a fixed buffer.
type StaticConfig struct {
	Name   string
	C      float64 // farads
	VMax   float64 // overvoltage clip point (e.g. 3.6 V)
	LeakI  float64 // leakage current at VRated
	VRated float64
}

// NewStatic builds a static buffer from cfg. A zero Name is derived from the
// capacitance.
func NewStatic(cfg StaticConfig) *Static {
	name := cfg.Name
	if name == "" {
		name = fmt.Sprintf("%.0f µF static", cfg.C*1e6)
	}
	return &Static{
		name: name,
		cap: circuit.Capacitor{
			C:      cfg.C,
			VMax:   cfg.VMax,
			LeakI:  cfg.LeakI,
			VRated: cfg.VRated,
		},
	}
}

// Traits implements Buffer: a static buffer has a name and nothing else —
// no management software, no level ladder, the platform's wake voltage.
func (s *Static) Traits() Traits { return Traits{Name: s.name} }

// Harvest implements Buffer.
func (s *Static) Harvest(dE float64) {
	if dE <= 0 {
		return
	}
	s.ledger.Harvested += dE
	s.cap.Store(dE, 0)
	s.ledger.Clipped += s.cap.Clip()
}

// Draw implements Buffer.
func (s *Static) Draw(dE float64) float64 {
	got := s.cap.Draw(dE)
	s.ledger.Consumed += got
	return got
}

// OutputVoltage implements Buffer.
func (s *Static) OutputVoltage() float64 { return s.cap.Voltage() }

// Stored implements Buffer.
func (s *Static) Stored() float64 { return s.cap.Energy() }

// Capacitance implements Buffer.
func (s *Static) Capacitance() float64 { return s.cap.C }

// Tick implements Buffer.
func (s *Static) Tick(now, dt float64, deviceOn bool) {
	s.ledger.Leaked += s.cap.Leak(dt)
}

// QuiescentOff implements Buffer: a static buffer's off-tick is only
// leakage, which is a no-op exactly when Leak would return without touching
// the charge (no leakage current, or nothing left to leak).
func (s *Static) QuiescentOff() bool { return s.cap.LeakI <= 0 || s.cap.Q <= 0 }

// Ledger implements Buffer.
func (s *Static) Ledger() *Ledger { return &s.ledger }

// Level implements Buffer: one fixed configuration, level 0.
func (s *Static) Level() int { return 0 }
