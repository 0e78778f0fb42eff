package simtest

import (
	"reflect"
	"strings"
	"testing"

	"react/internal/buffer"
	"react/internal/core"
	"react/internal/sim"
)

// leakyFake violates conservation: it harvests energy without recording it
// in the ledger, and its voltage can exceed any physical clip.
type leakyFake struct {
	stored float64
	ledger buffer.Ledger
}

func (f *leakyFake) Traits() buffer.Traits { return buffer.Traits{Name: "leaky-fake"} }
func (f *leakyFake) Harvest(dE float64) {
	f.stored += 2 * dE // creates energy out of thin air
	f.ledger.Harvested += dE
}
func (f *leakyFake) Draw(dE float64) float64 {
	f.ledger.Consumed += dE
	f.stored -= dE
	return dE
}
func (f *leakyFake) OutputVoltage() float64              { return 5.0 } // above any clip
func (f *leakyFake) Stored() float64                     { return f.stored }
func (f *leakyFake) Capacitance() float64                { return 1e-3 }
func (f *leakyFake) Tick(now, dt float64, deviceOn bool) {}
func (f *leakyFake) Ledger() *buffer.Ledger              { return &f.ledger }
func (f *leakyFake) Level() int                          { return 0 }
func (f *leakyFake) QuiescentOff() bool                  { return false }

func TestCheckCatchesNonConservingBuffer(t *testing.T) {
	b, rec := Check(&leakyFake{}, 0)
	b.Harvest(1e-3)
	b.Tick(0, 1e-3, false)
	err := rec.Err()
	if err == nil {
		t.Fatal("a buffer that doubles harvested energy must violate conservation")
	}
	if !strings.Contains(err.Error(), "imbalance") || !strings.Contains(err.Error(), "voltage") {
		t.Errorf("error should report both the imbalance and the voltage breach: %v", err)
	}
}

func TestCheckCatchesTimeTravel(t *testing.T) {
	st := buffer.NewStatic(buffer.StaticConfig{
		Name: "1 mF", C: 1e-3, VMax: 3.6, LeakI: 1e-6, VRated: 6.3,
	})
	b, rec := Check(st, 0)
	b.Tick(1.0, 1e-3, false)
	b.Tick(0.5, 1e-3, false)
	if rec.Err() == nil {
		t.Error("backwards simulated time must be a violation")
	}
}

func TestCheckPassesHonestBufferAndPreservesLevels(t *testing.T) {
	inner := core.New(core.DefaultConfig())
	b, rec := Check(inner, 0)
	if got, want := b.Traits(), inner.Traits(); !reflect.DeepEqual(got, want) {
		t.Fatalf("wrapping REACT changed its traits: %+v, want %+v", got, want)
	}
	for i := 0; i < 5000; i++ {
		b.Harvest(4e-3 * 1e-3)
		b.Draw(1e-3 * 1e-3)
		b.Tick(float64(i)*1e-3, 1e-3, true)
	}
	if b.Level() != inner.Level() || b.Level() == 0 {
		t.Errorf("wrapped level %d, REACT's %d: the wrapper must pass a climbing level through", b.Level(), inner.Level())
	}
	empty := buffer.NewStatic(buffer.StaticConfig{C: 1e-3, VMax: 3.6})
	if wrapped, _ := Check(empty, 0); !empty.QuiescentOff() || wrapped.QuiescentOff() {
		t.Error("an audited buffer must never admit a fast-forward, even when the buffer it wraps is quiescent")
	}
	if err := rec.Err(); err != nil {
		t.Errorf("honest buffer flagged: %v", err)
	}
	if rec.Ticks() != 5000 {
		t.Errorf("audited %d ticks, want 5000", rec.Ticks())
	}
}

func TestCheckSamplesFlagsBadSeries(t *testing.T) {
	good := []sim.Sample{{T: 0, V: 1}, {T: 1, V: 2}}
	CheckSamples(t, "good", good, 0) // must not fail the test

	bad := &testing.T{}
	CheckSamples(bad, "time", []sim.Sample{{T: 1, V: 1}, {T: 1, V: 1}}, 0)
	if !bad.Failed() {
		t.Error("non-increasing time must fail")
	}
	bad = &testing.T{}
	CheckSamples(bad, "voltage", []sim.Sample{{T: 0, V: 9}}, 0)
	if !bad.Failed() {
		t.Error("over-limit voltage must fail")
	}
}
