package obs_test

import (
	"fmt"
	"reflect"
	"testing"

	"react/internal/mcu"
	"react/internal/obs"
	"react/internal/sim"
)

// eventLog is a sim.Probe logging every callback it receives.
type eventLog []string

func (l *eventLog) add(ev ...any) { *l = append(*l, fmt.Sprint(ev...)) }

func (l *eventLog) DeviceState(cell int, t float64, from, to mcu.State) {
	l.add("state ", cell, " ", t, " ", from, " ", to)
}
func (l *eventLog) Checkpoint(cell int, t float64, b, r int) {
	l.add("ckpt ", cell, " ", t, " ", b, " ", r)
}
func (l *eventLog) BufferReconfig(cell int, t, c float64)  { l.add("reconfig ", cell, " ", t, " ", c) }
func (l *eventLog) FastForward(cell int, from, to float64) { l.add("ff ", cell, " ", from, " ", to) }
func (l *eventLog) Retire(cell int, t float64)             { l.add("retire ", cell, " ", t) }
func (l *eventLog) SampleDT() float64                      { l.add("sample-dt"); return 0 }
func (l *eventLog) Sample(cell int, s sim.Sample)          { l.add("sample ", cell) }

// fire makes every device-level callback once, on cell 2.
func fire(p sim.Probe) {
	p.DeviceState(2, 1, mcu.Off, mcu.On)
	p.Checkpoint(2, 2, 1, 3)
	p.BufferReconfig(2, 3, 1e-3)
	p.FastForward(2, 4, 5)
	p.Retire(2, 6)
}

// TestSamplerPassesEventsOn pins that a Sampler hands each of the five
// device-level events, unchanged, to its next probe, keeps the sampling to
// itself, and is safe with no next probe at all.
func TestSamplerPassesEventsOn(t *testing.T) {
	var next eventLog
	s := obs.NewSampler(0.5, &next)
	fire(s)
	if s.SampleDT() != 0.5 {
		t.Errorf("SampleDT = %g, want 0.5", s.SampleDT())
	}
	points := []sim.Sample{{T: 0, V: 1.5}, {T: 0.5, V: 2, On: true, C: 1e-3, P: 2e-3}}
	for _, p := range points {
		s.Sample(2, p)
	}
	want := eventLog{"state 2 1 off on", "ckpt 2 2 1 3", "reconfig 2 3 0.001", "ff 2 4 5", "retire 2 6"}
	if !reflect.DeepEqual(next, want) {
		t.Errorf("next probe saw %q, want %q", next, want)
	}
	if got := s.Series(2); !reflect.DeepEqual(got, points) {
		t.Errorf("Series(2) = %+v, want %+v", got, points)
	}
	if got := s.Series(0); got != nil {
		t.Errorf("Series(0) = %+v for a cell never sampled, want nil", got)
	}

	alone := obs.NewSampler(1, nil)
	fire(alone) // must not panic
	alone.Sample(0, points[0])
	if got := alone.Series(0); len(got) != 1 {
		t.Errorf("a Sampler without next recorded %d points, want 1", len(got))
	}
}
