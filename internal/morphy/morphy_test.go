package morphy

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

func TestDefaultLadder(t *testing.T) {
	b := New(DefaultConfig())
	// Smallest configuration: eight 2 mF capacitors in series = 250 µF,
	// the paper's quoted Morphy minimum.
	approx(t, b.Capacitance(), 250e-6, 1e-12, "minimum configuration")
	levels := len(b.Traits().Guarantee)
	if levels != 11 {
		t.Fatalf("want 11 configurations, got %d", levels)
	}
	// The ladder must increase monotonically up to the 16 mF maximum.
	prev := 0.0
	for i := 0; i < levels; i++ {
		b.idx = i
		b.rebuild()
		c := b.Capacitance()
		if c <= prev {
			t.Errorf("partition %d capacitance %g not increasing", i, c)
		}
		prev = c
	}
	approx(t, prev, 16e-3, 1e-12, "maximum configuration")
}

func TestBadPartitionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("partition not covering all capacitors must panic")
		}
	}()
	cfg := DefaultConfig()
	cfg.Partitions = [][]int{{3, 3}} // only 6 of 8 caps
	New(cfg)
}

// losslessConfig disables the fabric conduction loss for tests that check
// exact storage arithmetic.
func losslessConfig() Config {
	cfg := DefaultConfig()
	cfg.FabricEfficiency = 1
	return cfg
}

func TestHarvestAndVoltage(t *testing.T) {
	b := New(losslessConfig())
	b.Harvest(0.5 * 250e-6 * 3.0 * 3.0) // energy for 3 V on 250 µF
	approx(t, b.OutputVoltage(), 3.0, 1e-9, "rail voltage after charging")
	approx(t, b.Stored(), 0.5*250e-6*9, 1e-12, "stored energy")
}

func TestFabricConductionLoss(t *testing.T) {
	b := New(DefaultConfig())
	b.Harvest(1e-3)
	wantStored := 1e-3 * b.cfg.FabricEfficiency
	approx(t, b.Stored(), wantStored, 1e-12, "fabric skims its conduction loss")
	approx(t, b.Ledger().SwitchLoss, 1e-3-wantStored, 1e-12, "loss lands in the switch ledger")
}

func TestDrawReturnsEnergy(t *testing.T) {
	b := New(losslessConfig())
	b.Harvest(1.5e-3) // 3.46 V on 250 µF, below the 3.6 V clip
	got := b.Draw(1e-3)
	approx(t, got, 1e-3, 1e-12, "draw delivers requested energy")
	got = b.Draw(10)
	approx(t, got, 0.5e-3, 1e-9, "over-draw drains the rest")
}

// TestReconfigurationDissipates is the paper's central criticism of the
// unified design: stepping a charged array between partitions loses stored
// energy to equalizing currents.
func TestReconfigurationDissipates(t *testing.T) {
	cfg := DefaultConfig()
	b := New(cfg)
	// Charge the full-parallel configuration, then walk the ladder down.
	b.idx = len(cfg.Partitions) - 1
	b.rebuild()
	b.Harvest(0.5 * 16e-3 * 3.4 * 3.4)
	before := b.Stored()
	lossBefore := b.Ledger().SwitchLoss
	for b.idx > 0 {
		b.idx--
		b.rebuild()
		b.equalize()
	}
	if b.Ledger().SwitchLoss <= lossBefore {
		t.Error("walking the ladder must dissipate energy in the switches")
	}
	if b.Stored() >= before {
		t.Error("stored energy must fall across reconfigurations")
	}
	// The loss must be substantial — this is why Morphy underperforms.
	frac := (before - b.Stored()) / before
	if frac < 0.10 {
		t.Errorf("ladder walk lost only %.1f%% — expected significant dissipation", frac*100)
	}
}

// TestUniformChargeStepIsLossless: from a cold start, the first ladder step
// {8} → {4,4} splits a uniformly charged chain into two identical chains at
// the same terminal voltage, which costs nothing. Losses appear once
// asymmetric partitions create unequal chain voltages.
func TestUniformChargeStepIsLossless(t *testing.T) {
	b := New(losslessConfig())
	b.Harvest(1e-3) // uniform per-cap charge in {8}
	b.idx = 1       // {4,4}
	b.rebuild()
	b.equalize()
	approx(t, b.Ledger().SwitchLoss, 0, 1e-12, "{8}→{4,4} with equal charge is lossless")
	// Next step {4,4} → {3,3,2} mixes chain lengths: lossy.
	b.idx = 2
	b.rebuild()
	b.equalize()
	if b.Ledger().SwitchLoss <= 0 {
		t.Error("{4,4}→{3,3,2} must dissipate")
	}
}

func TestControllerStepsUpOnOvervoltage(t *testing.T) {
	b := New(DefaultConfig())
	start := b.Level()
	for i := 0; i < 300000 && b.Level() == start; i++ {
		b.Harvest(30e-3 * 1e-3)
		b.Tick(float64(i)*1e-3, 1e-3, false) // controller is externally powered
	}
	if b.Level() != start+1 {
		t.Fatalf("controller did not step up under surplus power (level %d)", b.Level())
	}
}

func TestControllerStepsDownOnUndervoltage(t *testing.T) {
	b := New(DefaultConfig())
	b.idx = 4 // 4 mF
	b.rebuild()
	b.Harvest(0.5 * 4e-3 * 2.2 * 2.2)
	for i := 0; i < 300000 && b.Level() == 4; i++ {
		b.Draw(10e-3 * 1e-3)
		b.Tick(float64(i)*1e-3, 1e-3, true)
	}
	if b.Level() != 3 {
		t.Fatalf("controller did not step down under deficit (level %d)", b.Level())
	}
}

func TestGuaranteedEnergyMonotonic(t *testing.T) {
	b := New(DefaultConfig())
	prev := -1.0
	for lvl, g := range b.Traits().Guarantee {
		if g < prev {
			t.Errorf("guarantee not monotonic at level %d: %g < %g", lvl, g, prev)
		}
		prev = g
	}
}

func TestClipAtVMax(t *testing.T) {
	b := New(DefaultConfig())
	for i := 0; i < 2000; i++ {
		b.Harvest(50e-3 * 1e-3)
		// No ticks: controller never expands, so the rail must clip.
	}
	if v := b.OutputVoltage(); v > b.cfg.VMax+1e-9 {
		t.Errorf("rail %g V exceeds VMax %g V", v, b.cfg.VMax)
	}
	if b.Ledger().Clipped <= 0 {
		t.Error("surplus must be clipped")
	}
}

// TestEnergyConservation checks the ledger balances over a random schedule.
func TestEnergyConservation(t *testing.T) {
	f := func(seed uint8) bool {
		b := New(DefaultConfig())
		s := uint64(seed)*0x9e3779b9 + 7
		next := func() float64 {
			s = s*6364136223846793005 + 1442695040888963407
			return float64(s>>11) / (1 << 53)
		}
		for i := 0; i < 30000; i++ {
			b.Harvest(next() * 30e-3 * 1e-3)
			b.Draw(next() * 10e-3 * 1e-3)
			b.Tick(float64(i)*1e-3, 1e-3, true)
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
	if New(DefaultConfig()).Traits().Name != "Morphy" {
		t.Error("name")
	}
}

// TestHeldVoltagesMatchFresh drives a random mix of harvests (some large
// enough to clip), draws and device-on/off ticks through alternating
// surplus and deficit phases, so the controller steps the ladder both up
// and down. After every call the held state must be bit-identical to what
// the chains give when derived afresh: each chain voltage, the summed
// capacitance in chain order, and the capacitance-weighted rail voltage.
func TestHeldVoltagesMatchFresh(t *testing.T) {
	b := New(DefaultConfig())
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	check := func(call int, op string) {
		t.Helper()
		var c, qc float64
		for i, ch := range b.chains {
			if v := ch.Voltage(); !same(b.volts[i], v) {
				t.Fatalf("call %d (%s): chain %d held %v, fresh %v", call, op, i, b.volts[i], v)
			}
			cc := ch.Capacitance()
			qc += cc * ch.Voltage()
			c += cc
		}
		if !same(b.Capacitance(), c) {
			t.Fatalf("call %d (%s): held capacitance %v, fresh %v", call, op, b.Capacitance(), c)
		}
		want := 0.0
		if c != 0 {
			want = qc / c
		}
		if !same(b.OutputVoltage(), want) {
			t.Fatalf("call %d (%s): OutputVoltage %v, fresh %v", call, op, b.OutputVoltage(), want)
		}
	}
	s := uint64(0x5eed)
	next := func() float64 {
		s = s*6364136223846793005 + 1442695040888963407
		return float64(s>>11) / (1 << 53)
	}
	const dt = 1e-3
	ticks, ups, downs, clips := 0, 0, 0, 0
	for call := 0; call < 200_000; call++ {
		surplus := call/40_000%2 == 0
		switch r := next(); {
		case r < 0.3:
			p := next() * 2e-3
			if surplus {
				p = next() * 80e-3
			}
			clipped := b.Ledger().Clipped
			b.Harvest(p * dt)
			if b.Ledger().Clipped > clipped {
				clips++
			}
			check(call, "Harvest")
		case r < 0.6:
			p := next() * 2e-3
			if !surplus {
				p = next() * 20e-3
			}
			b.Draw(p * dt)
			check(call, "Draw")
		default:
			lvl := b.Level()
			b.Tick(float64(ticks)*dt, dt, r < 0.8)
			ticks++
			switch {
			case b.Level() > lvl:
				ups++
			case b.Level() < lvl:
				downs++
			}
			check(call, "Tick")
		}
	}
	if ups == 0 || downs == 0 || clips == 0 {
		t.Errorf("schedule exercised %d steps up, %d down and %d clipping harvests; want each > 0", ups, downs, clips)
	}
	t.Logf("%d ticks: %d steps up, %d down, %d clipping harvests", ticks, ups, downs, clips)
}
