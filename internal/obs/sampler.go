package obs

import (
	"sync"

	"react/internal/mcu"
	"react/internal/sim"
)

// noProbe observes nothing. Embedded in a probe, it supplies the
// callbacks that probe does not use.
type noProbe struct{}

func (noProbe) DeviceState(int, float64, mcu.State, mcu.State) {}
func (noProbe) Checkpoint(int, float64, int, int)              {}
func (noProbe) BufferReconfig(int, float64, float64)           {}
func (noProbe) FastForward(int, float64, float64)              {}
func (noProbe) Retire(int, float64)                            {}
func (noProbe) SampleDT() float64                              { return 0 }
func (noProbe) Sample(int, sim.Sample)                         {}

// probe lets a Sampler embed its next probe without exporting it.
type probe = sim.Probe

// Sampler is the probe behind Figures 1 and 6 and reactsim -record: it
// stores each cell's series, sampled every dt seconds, and passes the five
// device-level events on to the embedded next probe (a timeline, say).
// Cells may be stepped by concurrent workers.
type Sampler struct {
	probe  // next
	dt     float64
	mu     sync.Mutex
	series map[int][]sim.Sample
}

// NewSampler returns a Sampler; a nil next drops the device events.
func NewSampler(dt float64, next sim.Probe) *Sampler {
	if next == nil {
		next = noProbe{}
	}
	return &Sampler{probe: next, dt: dt, series: make(map[int][]sim.Sample)}
}

// SampleDT implements sim.Probe.
func (s *Sampler) SampleDT() float64 { return s.dt }

// Sample implements sim.Probe: append the point to the cell's series.
func (s *Sampler) Sample(cell int, p sim.Sample) {
	s.mu.Lock()
	s.series[cell] = append(s.series[cell], p)
	s.mu.Unlock()
}

// Series returns a cell's series (by sim.Config.ProbeCell) in time order.
func (s *Sampler) Series(cell int) []sim.Sample {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.series[cell]
}
