package buffer

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func newTest() *Static {
	return NewStatic(StaticConfig{C: 1e-3, VMax: 3.6, LeakI: 1e-6, VRated: 6.3})
}

func TestStaticName(t *testing.T) {
	if got := newTest().Traits().Name; !strings.Contains(got, "1000") {
		t.Errorf("derived name %q should mention the capacitance", got)
	}
	named := NewStatic(StaticConfig{Name: "primary", C: 1e-3})
	if got := named.Traits().Name; got != "primary" {
		t.Errorf("explicit name lost: %q", got)
	}
}

func TestStaticHarvestAndVoltage(t *testing.T) {
	s := newTest()
	s.Harvest(0.5 * 1e-3 * 3.3 * 3.3)
	if v := s.OutputVoltage(); math.Abs(v-3.3) > 1e-9 {
		t.Errorf("voltage %g, want 3.3", v)
	}
	if c := s.Capacitance(); c != 1e-3 {
		t.Errorf("capacitance %g", c)
	}
}

func TestStaticClipsAtVMax(t *testing.T) {
	s := newTest()
	s.Harvest(1) // far beyond capacity
	if v := s.OutputVoltage(); v > 3.6+1e-9 {
		t.Errorf("voltage %g exceeds clip", v)
	}
	if s.Ledger().Clipped <= 0 {
		t.Error("overvoltage energy must be clipped")
	}
}

func TestStaticDraw(t *testing.T) {
	s := newTest()
	s.Harvest(2e-3)
	got := s.Draw(1e-3)
	if math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("draw %g, want 1e-3", got)
	}
	if math.Abs(s.Ledger().Consumed-1e-3) > 1e-12 {
		t.Error("consumed not recorded")
	}
}

func TestStaticLeaksOverTime(t *testing.T) {
	s := newTest()
	s.Harvest(2e-3)
	before := s.Stored()
	for i := 0; i < 1000; i++ {
		s.Tick(float64(i), 1.0, false)
	}
	if s.Stored() >= before {
		t.Error("leakage must drain the buffer")
	}
	if s.Ledger().Leaked <= 0 {
		t.Error("leakage must be recorded")
	}
}

func TestStaticNoSoftwareOverhead(t *testing.T) {
	if newTest().Traits().OverheadFrac != 0 {
		t.Error("static buffers need no management software")
	}
}

func TestStaticIgnoresNonPositiveHarvest(t *testing.T) {
	s := newTest()
	s.Harvest(-1)
	s.Harvest(0)
	if s.Stored() != 0 || s.Ledger().Harvested != 0 {
		t.Error("non-positive harvest must be ignored")
	}
}

// Property: the ledger always balances for arbitrary harvest/draw
// sequences.
func TestStaticConservation(t *testing.T) {
	f := func(ops [20]uint16) bool {
		s := newTest()
		for i, op := range ops {
			e := float64(op) * 1e-7
			if i%2 == 0 {
				s.Harvest(e)
			} else {
				s.Draw(e)
			}
			s.Tick(float64(i), 0.5, true)
		}
		l := s.Ledger()
		in := l.Harvested
		out := l.Consumed + l.Clipped + l.Leaked + l.SwitchLoss + l.Overhead + s.Stored()
		return math.Abs(in-out) <= 1e-9*(1+in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestLedgerTotalLoss(t *testing.T) {
	l := Ledger{Clipped: 1, Leaked: 2, SwitchLoss: 3, Overhead: 4}
	if l.TotalLoss() != 10 {
		t.Errorf("total loss %g, want 10", l.TotalLoss())
	}
}

func TestLevelFor(t *testing.T) {
	l := []float64{0, 1e-3, 5e-3, 20e-3}
	if lvl, ok := LevelFor(l, 4e-3); !ok || lvl != 2 {
		t.Errorf("LevelFor(4 mJ) = %d,%v, want 2,true", lvl, ok)
	}
	if lvl, ok := LevelFor(l, 0); !ok || lvl != 0 {
		t.Errorf("LevelFor(0) = %d,%v, want 0,true", lvl, ok)
	}
	if lvl, ok := LevelFor(l, 1); ok || lvl != 3 {
		t.Errorf("LevelFor(1 J) = %d,%v, want the largest level 3 and false", lvl, ok)
	}
}
