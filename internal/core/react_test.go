package core

import (
	"math"
	"testing"
	"testing/quick"

	"react/internal/buffer"
)

// smallConfig is a compact REACT instance used by controller tests: a
// 770 µF LLB plus two banks.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Banks = []BankSpec{
		{N: 3, UnitC: 440e-6},
		{N: 2, UnitC: 2e-3},
	}
	return cfg
}

func TestDefaultConfigMatchesTable1(t *testing.T) {
	cfg := DefaultConfig()
	approx(t, cfg.LLB.C, 770e-6, 1e-12, "last-level buffer")
	if len(cfg.Banks) != 5 {
		t.Fatalf("want 5 dynamic banks, got %d", len(cfg.Banks))
	}
	wantUnits := []float64{220e-6, 440e-6, 880e-6, 880e-6, 5e-3}
	wantCounts := []int{3, 3, 3, 3, 2}
	for i, b := range cfg.Banks {
		approx(t, b.UnitC, wantUnits[i], 1e-12, "bank unit size")
		if b.N != wantCounts[i] {
			t.Errorf("bank %d count %d, want %d", i+1, b.N, wantCounts[i])
		}
	}
	approx(t, cfg.MaxCapacitance(), 18.03e-3, 1e-6, "capacitance range top (18.03 mF)")
}

// TestDefaultConfigSatisfiesEquation2 checks every Table 1 bank against the
// §3.3.5 sizing bound: the reclamation spike must stay below V_high.
func TestDefaultConfigSatisfiesEquation2(t *testing.T) {
	cfg := DefaultConfig()
	for i, b := range cfg.Banks {
		vNew := VoltageAfterReclaim(b.N, b.UnitC, cfg.LLB.C, cfg.VLow)
		if vNew >= cfg.VHigh {
			t.Errorf("bank %d reclamation spike %.3f V exceeds V_high %.2f V", i+1, vNew, cfg.VHigh)
		}
		limit := MaxUnitCapacitance(b.N, cfg.LLB.C, cfg.VLow, cfg.VHigh)
		if b.UnitC >= limit {
			t.Errorf("bank %d unit %.0f µF exceeds Equation 2 limit %.0f µF", i+1, b.UnitC*1e6, limit*1e6)
		}
	}
}

// TestEquation1MatchesSimulation demotes a charged parallel bank to series
// and lets it equalize with the LLB through the output diode; the resulting
// LLB voltage must be exactly Equation 1.
func TestEquation1MatchesSimulation(t *testing.T) {
	cfg := smallConfig()
	b := New(cfg)
	bank := b.banks[1] // N=2, 2 mF
	bank.Reconfigure(Parallel)
	bank.SetCapVoltage(cfg.VLow)
	b.llb.SetVoltage(cfg.VLow)
	b.step = 4 // controller believes both banks are parallel

	bank.Reconfigure(Series)
	b.relax()

	want := VoltageAfterReclaim(2, 2e-3, cfg.LLB.C, cfg.VLow)
	approx(t, b.OutputVoltage(), want, 1e-9, "Equation 1 voltage after reclamation")
}

func TestEquation2Boundary(t *testing.T) {
	// At exactly the Equation 2 limit the post-reclamation voltage equals
	// V_high.
	const n, cLast, vLow, vHigh = 3, 770e-6, 1.9, 3.5
	limit := MaxUnitCapacitance(n, cLast, vLow, vHigh)
	v := VoltageAfterReclaim(n, limit, cLast, vLow)
	approx(t, v, vHigh, 1e-9, "boundary voltage = V_high")
	// N·V_low below V_high means the spike can never reach V_high.
	if !math.IsInf(MaxUnitCapacitance(1, cLast, vLow, vHigh), 1) {
		t.Error("unconstrained case should return +Inf")
	}
}

func TestColdStartChargesOnlyLLB(t *testing.T) {
	b := New(smallConfig())
	approx(t, b.Capacitance(), 770e-6, 1e-12, "cold-start capacitance = LLB only")
	b.Harvest(1e-3)
	if b.llb.Energy() < 0.99e-3 {
		t.Errorf("harvested energy should land on the LLB, got %g J", b.llb.Energy())
	}
	for i, bank := range b.banks {
		if bank.Energy() != 0 {
			t.Errorf("bank %d charged during cold start", i)
		}
	}
}

// TestControllerExpandSequence drives the buffer with surplus power and
// checks the §3.4 stepping: bank 0 series → bank 0 parallel → bank 1 series
// → bank 1 parallel.
func TestControllerExpandSequence(t *testing.T) {
	cfg := smallConfig()
	b := New(cfg)
	wantStates := [][2]BankState{
		{Series, Disconnected},
		{Parallel, Disconnected},
		{Parallel, Series},
		{Parallel, Parallel},
	}
	step := 0
	for i := 0; i < 400000 && step < 4; i++ {
		b.Harvest(20e-3 * 1e-3) // 20 mW surplus
		b.Tick(float64(i)*1e-3, 1e-3, true)
		if b.Level() > step {
			got := [2]BankState{b.banks[0].State, b.banks[1].State}
			if got != wantStates[step] {
				t.Fatalf("after step %d states = %v, want %v", step+1, got, wantStates[step])
			}
			step++
		}
	}
	if step != 4 {
		t.Fatalf("controller only reached step %d of 4", step)
	}
	if top := len(b.Traits().Guarantee) - 1; b.Level() != top {
		t.Errorf("level %d, want max %d", b.Level(), top)
	}
}

// TestControllerContractSequence charges the buffer fully, then applies a
// heavy load and checks that the controller steps back down, reclaiming
// charge (voltage spikes above V_low after each demotion) until everything
// is disconnected.
func TestControllerContractSequence(t *testing.T) {
	cfg := smallConfig()
	b := New(cfg)
	// Start fully expanded and charged.
	b.step = 4
	b.banks[0].Reconfigure(Parallel)
	b.banks[0].SetCapVoltage(3.4)
	b.banks[1].Reconfigure(Parallel)
	b.banks[1].SetCapVoltage(3.4)
	b.llb.SetVoltage(3.4)

	sawReclaim := false
	for i := 0; i < 600000 && b.Level() > 0; i++ {
		before := b.OutputVoltage()
		b.Draw(8e-3 * 1e-3) // 8 mW load, no input
		b.Tick(float64(i)*1e-3, 1e-3, true)
		if b.OutputVoltage() > before+0.1 {
			sawReclaim = true // demotion spiked the rail upward
		}
	}
	if b.Level() != 0 {
		t.Fatalf("controller stuck at level %d", b.Level())
	}
	if !sawReclaim {
		t.Error("no reclamation voltage spike observed during contraction")
	}
	for i, bank := range b.banks {
		if bank.State != Disconnected {
			t.Errorf("bank %d still %v after full contraction", i, bank.State)
		}
	}
}

func TestControllerIdleWhenDeviceOff(t *testing.T) {
	b := New(smallConfig())
	for i := 0; i < 5000; i++ {
		b.Harvest(50e-3 * 1e-3)
		b.Tick(float64(i)*1e-3, 1e-3, false) // device off: no polling
	}
	if b.Level() != 0 {
		t.Error("controller must not reconfigure while the device is off")
	}
	if b.Ledger().Overhead != 0 {
		t.Error("no management draw while the device is off")
	}
}

func TestHarvestPrefersLowestNode(t *testing.T) {
	b := New(smallConfig())
	b.llb.SetVoltage(3.5)
	b.banks[0].Reconfigure(Series)
	b.step = 1
	// The fresh series bank is at 0 V: all harvest goes there while the
	// device runs from the LLB.
	b.Harvest(0.5e-3)
	if b.banks[0].Energy() < 0.49e-3 {
		t.Errorf("harvest should charge the empty bank, got %g J", b.banks[0].Energy())
	}
	approx(t, b.llb.Voltage(), 3.5, 1e-9, "LLB untouched by harvest")
}

func TestDrawFallsBackToBanks(t *testing.T) {
	b := New(smallConfig())
	b.llb.SetVoltage(2.0)
	b.banks[1].Reconfigure(Parallel)
	b.banks[1].SetCapVoltage(3.0)
	b.step = 4
	llbOnly := b.llb.Energy()
	got := b.Draw(llbOnly + 1e-3) // more than the LLB holds
	if got < llbOnly+0.99e-3 {
		t.Errorf("draw should pull from banks through the diode, got %g J", got)
	}
}

func TestGuaranteedEnergyMonotonic(t *testing.T) {
	b := New(DefaultConfig())
	guarantee := b.Traits().Guarantee
	prev := -1.0
	for lvl, g := range guarantee {
		if g < prev {
			t.Errorf("guarantee not monotonic at level %d: %g < %g", lvl, g, prev)
		}
		prev = g
	}
	if guarantee[0] != 0 {
		t.Error("level 0 guarantees nothing")
	}
	if got := len(guarantee); got != 2*len(b.banks)+1 {
		t.Errorf("guarantee table has %d levels, want two per bank plus the bare LLB (%d)", got, 2*len(b.banks)+1)
	}
}

func TestLevelFor(t *testing.T) {
	guarantee := New(DefaultConfig()).Traits().Guarantee
	// A 12.4 mJ radio transmission needs a level whose guarantee covers it.
	lvl, ok := buffer.LevelFor(guarantee, 12.4e-3)
	if !ok {
		t.Fatal("Table 1 configuration must be able to guarantee a radio TX")
	}
	if g := guarantee[lvl]; g < 12.4e-3 {
		t.Errorf("level %d guarantees %g J < 12.4 mJ", lvl, g)
	}
	if lvl > 0 {
		if g := guarantee[lvl-1]; g >= 12.4e-3 {
			t.Errorf("level %d already sufficed", lvl-1)
		}
	}
	if _, ok := buffer.LevelFor(guarantee, 1e6); ok {
		t.Error("megajoule guarantee should be impossible")
	}
}

// TestEnergyConservation runs a randomized harvest/draw schedule and checks
// the ledger balances: everything harvested is either delivered, lost to an
// accounted sink, or still stored.
func TestEnergyConservation(t *testing.T) {
	f := func(seed uint8) bool {
		b := New(smallConfig())
		s := uint64(seed)*2654435761 + 1
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

func TestSoftwareOverheadFraction(t *testing.T) {
	b := New(DefaultConfig())
	approx(t, b.Traits().OverheadFrac, 0.018, 0, "paper: 1.8 % at 10 Hz")
}
