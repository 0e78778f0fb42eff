package capybara

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %g, want %g (tol %g)", msg, got, want, tol)
	}
}

func TestStartsOnSmallestBank(t *testing.T) {
	b := New(DefaultConfig())
	approx(t, b.Capacitance(), 770e-6, 1e-12, "mode 0 = bank 0 only")
	if b.Level() != 0 {
		t.Error("fresh array starts at mode 0")
	}
}

func TestHarvestFillsRailThenReserves(t *testing.T) {
	b := New(DefaultConfig())
	railFull := 0.5 * 770e-6 * 3.6 * 3.6
	b.Harvest(railFull + 1e-3)
	approx(t, b.OutputVoltage(), 3.6, 1e-9, "rail charged to the clip voltage")
	if b.banks[1].Energy() < 0.99e-3 {
		t.Errorf("surplus should trickle into the first reserve, got %g J", b.banks[1].Energy())
	}
	if b.Ledger().Clipped > 1e-12 {
		t.Error("nothing should clip while reserves have room")
	}
}

func TestHarvestClipsWhenEverythingFull(t *testing.T) {
	b := New(DefaultConfig())
	b.Harvest(10) // far beyond total capacity
	if b.Ledger().Clipped <= 0 {
		t.Error("a totally full array must clip")
	}
	for i, c := range b.banks {
		if v := c.Voltage(); v > 3.6+1e-9 {
			t.Errorf("bank %d at %g V exceeds VMax", i, v)
		}
	}
}

func TestModeStepsUpOnOvervoltage(t *testing.T) {
	b := New(DefaultConfig())
	for i := 0; i < 400000 && b.Level() == 0; i++ {
		b.Harvest(20e-3 * 1e-3)
		b.Tick(float64(i)*1e-3, 1e-3, true)
	}
	if b.Level() != 1 {
		t.Fatalf("mode %d, want 1 after sustained surplus", b.Level())
	}
	// The reserve was background-charged, so the inrush loss is small
	// compared to the energy moved.
	if b.Ledger().SwitchLoss > 0.2e-3 {
		t.Errorf("pre-charged reserve should connect cheaply, lost %g J", b.Ledger().SwitchLoss)
	}
}

func TestModeStepsDownStrandsCharge(t *testing.T) {
	b := New(DefaultConfig())
	b.mode = 1
	for _, c := range b.active() {
		c.SetVoltage(2.0)
	}
	for i := 0; i < 200000 && b.Level() == 1; i++ {
		b.Draw(5e-3 * 1e-3)
		b.Tick(float64(i)*1e-3, 1e-3, true)
	}
	if b.Level() != 0 {
		t.Fatalf("mode %d, want 0 after sustained deficit", b.Level())
	}
	// The disconnected bank keeps its charge — stranded, not boostable.
	if b.banks[1].Energy() <= 0 {
		t.Error("disconnected bank should strand its residual charge")
	}
	if b.Capacitance() != 770e-6 {
		t.Error("rail shrinks back to bank 0")
	}
}

func TestDrawServesFromActiveRail(t *testing.T) {
	b := New(DefaultConfig())
	b.banks[0].SetVoltage(3.0)
	b.banks[1].SetVoltage(3.0) // reserve, not connected
	got := b.Draw(1e-3)
	approx(t, got, 1e-3, 1e-12, "draw served")
	approx(t, b.banks[1].Energy(), 0.5*2e-3*9, 1e-12, "reserve untouched by the load")
}

func TestGuaranteedEnergyMonotonic(t *testing.T) {
	b := New(DefaultConfig())
	prev := -1.0
	for lvl, g := range b.Traits().Guarantee {
		if g < prev {
			t.Errorf("guarantee not monotonic at %d", lvl)
		}
		prev = g
	}
	if got := len(b.Traits().Guarantee); got != len(b.banks) {
		t.Errorf("guarantee table has %d levels, want one per mode (%d)", got, len(b.banks))
	}
}

func TestEnergyConservation(t *testing.T) {
	f := func(seed uint8) bool {
		b := New(DefaultConfig())
		s := uint64(seed)*2654435761 + 3
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		for i := 0; i < 30000; i++ {
			b.Harvest(next() * 30e-3 * 1e-3)
			b.Draw(next() * 10e-3 * 1e-3)
			b.Tick(float64(i)*1e-3, 1e-3, next() < 0.7)
		}
		l := b.Ledger()
		in := l.Harvested
		out := l.Consumed + l.Clipped + l.Leaked + l.SwitchLoss + l.Overhead + b.Stored()
		return math.Abs(in-out) <= 1e-9*(1+in)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestName(t *testing.T) {
	if New(DefaultConfig()).Traits().Name != "Capybara" {
		t.Error("name")
	}
}
