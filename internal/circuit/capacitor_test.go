package circuit

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

func TestCapacitorVoltageEnergy(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(3.3)
	approx(t, c.Voltage(), 3.3, 1e-12, "voltage")
	approx(t, c.Energy(), 0.5*1e-3*3.3*3.3, 1e-12, "energy")
	approx(t, c.Capacitance(), 1e-3, 0, "capacitance")
}

func TestCapacitorZeroValue(t *testing.T) {
	var c Capacitor
	if c.Voltage() != 0 || c.Energy() != 0 {
		t.Errorf("zero-value capacitor should report zero V and E, got %g V %g J", c.Voltage(), c.Energy())
	}
}

func TestCapacitorAddChargeTruncatesAtEmpty(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(1.0) // Q = 1 mC
	moved := c.AddCharge(-2e-3)
	approx(t, moved, -1e-3, 1e-15, "over-withdrawal truncated")
	approx(t, c.Q, 0, 1e-15, "charge empties exactly")
}

func TestCapacitorClip(t *testing.T) {
	c := &Capacitor{C: 1e-3, VMax: 3.6}
	c.SetVoltage(4.0)
	lost := c.Clip()
	approx(t, c.Voltage(), 3.6, 1e-12, "clipped voltage")
	want := 0.5 * 1e-3 * (4.0*4.0 - 3.6*3.6)
	approx(t, lost, want, 1e-12, "clipped energy")
	if c.Clip() != 0 {
		t.Error("second clip should discard nothing")
	}
}

func TestCapacitorClipDisabled(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(100)
	if c.Clip() != 0 {
		t.Error("VMax=0 must disable clipping")
	}
}

func TestCapacitorLeakScalesWithVoltage(t *testing.T) {
	c := &Capacitor{C: 1e-3, LeakI: 28e-6, VRated: 6.3}
	c.SetVoltage(3.15) // half of rated -> half leakage current
	before := c.Q
	lost := c.Leak(1.0)
	wantDQ := 14e-6 // 28 µA * 0.5 * 1 s
	approx(t, before-c.Q, wantDQ, 1e-12, "leaked charge")
	if lost <= 0 {
		t.Error("leak must lose energy")
	}
}

func TestCapacitorLeakEmptiesNoFurther(t *testing.T) {
	c := &Capacitor{C: 1e-9, LeakI: 1e-3, VRated: 1}
	c.SetVoltage(1)
	c.Leak(1e6)
	if c.Q < 0 {
		t.Errorf("leak drove charge negative: %g", c.Q)
	}
}

func TestCapacitorLeakZeroCurrent(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(3)
	if c.Leak(100) != 0 {
		t.Error("no leakage current specified, no energy should be lost")
	}
}

func TestChainEquivalents(t *testing.T) {
	a := &Capacitor{C: 2e-3}
	b := &Capacitor{C: 2e-3}
	ch := NewChain(a, b)
	approx(t, ch.Capacitance(), 1e-3, 1e-15, "two equal caps in series halve capacitance")
	a.SetVoltage(1.5)
	b.SetVoltage(2.0)
	approx(t, ch.Voltage(), 3.5, 1e-12, "chain voltage sums members")
	approx(t, ch.Energy(), a.Energy()+b.Energy(), 1e-15, "chain energy sums members")
}

func TestChainAddChargeCommonCurrent(t *testing.T) {
	a := &Capacitor{C: 1e-3}
	b := &Capacitor{C: 2e-3}
	ch := NewChain(a, b)
	ch.AddCharge(1e-3)
	approx(t, a.Q, 1e-3, 1e-15, "series member charge a")
	approx(t, b.Q, 1e-3, 1e-15, "series member charge b")
	approx(t, ch.Voltage(), 1.0+0.5, 1e-12, "voltage after charging")
}

func TestChainWithdrawReverseCharges(t *testing.T) {
	a := &Capacitor{C: 1e-3}
	b := &Capacitor{C: 1e-3}
	a.Q = 1e-3
	b.Q = 2e-3
	ch := NewChain(a, b)
	moved := ch.AddCharge(-1.5e-3)
	approx(t, moved, -1.5e-3, 1e-15, "series current keeps flowing through a drained member")
	approx(t, a.Q, -0.5e-3, 1e-15, "drained member charges in reverse")
	approx(t, b.Q, 0.5e-3, 1e-15, "other member discharges normally")
	approx(t, ch.Voltage(), 0, 1e-12, "terminal voltage nets to zero")
}

// TestPaperLossFourCap reproduces the first worked example in §3.3.1: four
// capacitors C in series charged to total V; one capacitor is removed from
// the chain and placed in parallel with the remaining three-series chain.
// The paper derives a final voltage of 3V/8 and a 25 % energy loss.
func TestPaperLossFourCap(t *testing.T) {
	const C, V = 1e-3, 4.0
	caps := make([]*Capacitor, 4)
	for i := range caps {
		caps[i] = &Capacitor{C: C}
		caps[i].SetVoltage(V / 4) // series charging leaves members equal
	}
	full := NewChain(caps...)
	eOld := full.Energy()
	approx(t, eOld, 0.5*(C/4)*V*V, 1e-12, "E_old = ½(C/4)V²")

	three := NewChain(caps[0], caps[1], caps[2])
	single := NewChain(caps[3])
	vNew, loss := equalize(t, three, single)

	approx(t, vNew, 3*V/8, 1e-9, "final voltage 3V/8")
	eNew := three.Energy() + single.Energy()
	approx(t, eNew/eOld, 0.75, 1e-9, "75 % of energy conserved")
	approx(t, loss, 0.25*eOld, 1e-9, "25 % dissipated")
}

// TestPaperLossEightCap reproduces the second worked example in §3.3.1: an
// eight-capacitor array transitions from all-parallel to
// seven-series-one-parallel, wasting 56.25 % of its stored energy.
func TestPaperLossEightCap(t *testing.T) {
	const C, V = 2e-3, 3.0
	caps := make([]*Capacitor, 8)
	for i := range caps {
		caps[i] = &Capacitor{C: C}
		caps[i].SetVoltage(V) // all-parallel: every member at V
	}
	eOld := 8 * 0.5 * C * V * V

	seven := NewChain(caps[:7]...)
	one := NewChain(caps[7])
	_, loss := equalize(t, seven, one)

	eNew := seven.Energy() + one.Energy()
	approx(t, eNew/eOld, 0.4375, 1e-9, "43.75 % of energy conserved")
	approx(t, loss/eOld, 0.5625, 1e-9, "56.25 % dissipated")
}

func TestEqualizeParallelEqualVoltagesLossless(t *testing.T) {
	a := &Capacitor{C: 1e-3}
	b := &Capacitor{C: 5e-3}
	a.SetVoltage(2.5)
	b.SetVoltage(2.5)
	v, loss := equalize(t, a, b)
	approx(t, v, 2.5, 1e-12, "equal-voltage equalization keeps voltage")
	approx(t, loss, 0, 1e-12, "equal-voltage equalization is lossless")
}

func TestEqualizeParallelEmpty(t *testing.T) {
	v, loss := equalize(t)
	if v != 0 || loss != 0 {
		t.Error("no nodes, no effect")
	}
}

// equalize parallels nodes as a caller holding no voltages does: it derives
// them, equalizes, and requires the voltages EqualizeParallel hands back to
// be bit-identical to freshly derived ones. It returns the first node's
// final voltage (0 without nodes) and the loss.
func equalize(t *testing.T, nodes ...Node) (v, loss float64) {
	t.Helper()
	volts := make([]float64, len(nodes))
	for i, n := range nodes {
		volts[i] = n.Voltage()
	}
	loss = EqualizeParallel(nodes, volts)
	for i, n := range nodes {
		if math.Float64bits(volts[i]) != math.Float64bits(n.Voltage()) {
			t.Errorf("node %d: held voltage %v after equalizing, fresh %v", i, volts[i], n.Voltage())
		}
	}
	if len(volts) > 0 {
		v = volts[0]
	}
	return v, loss
}

// transfer conducts src into dst through a diode with forward drop vDrop,
// the way a REACT bank's output diode feeds the last-level buffer, and
// returns the charge moved and the energy dissipated.
func transfer(src, dst *Capacitor, vDrop float64) (dq, loss float64) {
	dq = TransferDQ(src.Voltage(), dst.Voltage(), src.C, dst.C, vDrop)
	if dq == 0 {
		return 0, 0
	}
	before := src.Energy() + dst.Energy()
	src.AddCharge(-dq)
	dst.AddCharge(dq)
	loss = before - src.Energy() - dst.Energy()
	if loss < 0 && loss > -1e-15 {
		loss = 0 // rounding guard
	}
	return dq, loss
}

func TestTransferOneWayBlocksReverse(t *testing.T) {
	lo := &Capacitor{C: 1e-3}
	hi := &Capacitor{C: 1e-3}
	lo.SetVoltage(1.0)
	hi.SetVoltage(3.0)
	dq, loss := transfer(lo, hi, 0)
	if dq != 0 || loss != 0 {
		t.Error("diode must not conduct from low to high")
	}
}

func TestTransferOneWayEqualizes(t *testing.T) {
	src := &Capacitor{C: 1e-3}
	dst := &Capacitor{C: 1e-3}
	src.SetVoltage(3.0)
	dst.SetVoltage(1.0)
	dq, loss := transfer(src, dst, 0)
	approx(t, src.Voltage(), 2.0, 1e-9, "source settles at midpoint")
	approx(t, dst.Voltage(), 2.0, 1e-9, "dest settles at midpoint")
	approx(t, dq, 1e-3, 1e-12, "transferred charge")
	// Equal caps from 3 V and 1 V: loss = ¼C(ΔV)² = ¼·1e-3·4 = 1 mJ.
	approx(t, loss, 1e-3, 1e-9, "conduction loss")
}

func TestTransferOneWaySchottkyDropStopsEarly(t *testing.T) {
	src := &Capacitor{C: 1e-3}
	dst := &Capacitor{C: 1e-3}
	src.SetVoltage(3.0)
	dst.SetVoltage(1.0)
	_, _ = transfer(src, dst, 0.3)
	approx(t, src.Voltage()-dst.Voltage(), 0.3, 1e-9, "conduction stops at the forward drop")
}

func TestStoreEnergyFromZeroVolts(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	dq := c.Store(1e-3, 0)
	approx(t, c.Energy(), 1e-3, 1e-12, "all energy stored")
	if dq <= 0 {
		t.Error("charge must be delivered")
	}
}

func TestStoreEnergyWithDropLoses(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(2.0)
	dq := c.Store(1e-3, 0.3)
	if dq <= 0 {
		t.Fatal("charge must be delivered")
	}
	approx(t, c.Energy()-0.5*1e-3*4, 1e-3-0.3*dq, 1e-9, "stored = delivered − vDrop·dq")
}

func TestStoreEnergyNowhere(t *testing.T) {
	ch := NewChain()
	if dq := ch.Store(ch.Voltage(), 1e-3, 0); dq != 0 || ch.Energy() != 0 {
		t.Errorf("zero capacitance must store nothing, got dq %g, E %g", dq, ch.Energy())
	}
	if dq := StoreDQ(0, 0, 1e-3, 0); dq != 0 {
		t.Errorf("StoreDQ into 0 F = %g, want 0", dq)
	}
}

func TestDrawEnergyExact(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(3.0)
	before := c.Energy()
	got := c.Draw(1e-3)
	approx(t, got, 1e-3, 1e-12, "requested energy drawn")
	approx(t, before-c.Energy(), 1e-3, 1e-12, "stored energy fell by the same amount")
}

func TestDrawEnergyDrainsCompletely(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	c.SetVoltage(2.0)
	avail := c.Energy()
	got := c.Draw(10 * avail)
	approx(t, got, avail, 1e-12, "over-draw returns what was available")
	approx(t, c.Voltage(), 0, 1e-12, "capacitor empty")
}

func TestDrawEnergyFromEmpty(t *testing.T) {
	c := &Capacitor{C: 1e-3}
	if c.Draw(1) != 0 {
		t.Error("nothing to draw from an empty capacitor")
	}
}

// Property: equalizing any pair of randomly charged capacitors conserves
// charge exactly and never creates energy.
func TestEqualizeParallelProperties(t *testing.T) {
	f := func(c1u, c2u, v1u, v2u uint16) bool {
		c1 := 1e-6 + float64(c1u)*1e-7
		c2 := 1e-6 + float64(c2u)*1e-7
		v1 := float64(v1u) / 1e4 * 5
		v2 := float64(v2u) / 1e4 * 5
		a := &Capacitor{C: c1}
		b := &Capacitor{C: c2}
		a.SetVoltage(v1)
		b.SetVoltage(v2)
		qBefore := a.Q + b.Q
		eBefore := a.Energy() + b.Energy()
		_, loss := equalize(t, a, b)
		qAfter := a.Q + b.Q
		eAfter := a.Energy() + b.Energy()
		chargeOK := math.Abs(qBefore-qAfter) <= 1e-12*(1+math.Abs(qBefore))
		energyOK := loss >= 0 && math.Abs(eBefore-eAfter-loss) <= 1e-9*(1+eBefore)
		voltOK := math.Abs(a.Voltage()-b.Voltage()) <= 1e-9
		return chargeOK && energyOK && voltOK
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: a store/draw round trip through an ideal diode returns the
// energy put in, to numerical tolerance, for a lone capacitor and for a
// two-member series chain.
func TestStoreDrawRoundTrip(t *testing.T) {
	f := func(cu, eu uint16) bool {
		c := &Capacitor{C: 1e-6 + float64(cu)*1e-7}
		dE := 1e-9 + float64(eu)*1e-8
		c.Store(dE, 0)
		got := c.Draw(dE)
		ch := NewChain(&Capacitor{C: c.C}, &Capacitor{C: 2 * c.C})
		ch.Store(ch.Voltage(), dE, 0)
		gotCh := ch.Draw(ch.Voltage(), dE)
		return math.Abs(got-dE) <= 1e-9*(1+dE) && math.Abs(gotCh-dE) <= 1e-9*(1+dE)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: one-way transfer never pushes the destination above the source's
// original voltage and always dissipates a non-negative amount.
func TestTransferOneWayProperties(t *testing.T) {
	f := func(v1u, v2u uint16) bool {
		src := &Capacitor{C: 2e-3}
		dst := &Capacitor{C: 0.5e-3}
		vs := float64(v1u) / 1e4 * 5
		vd := float64(v2u) / 1e4 * 5
		src.SetVoltage(vs)
		dst.SetVoltage(vd)
		qBefore := src.Q + dst.Q
		_, loss := transfer(src, dst, 0)
		if loss < 0 {
			return false
		}
		if dst.Voltage() > vs+1e-9 && vs > vd {
			return false
		}
		return math.Abs(src.Q+dst.Q-qBefore) <= 1e-12*(1+qBefore)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Regression: drawing almost exactly the stored energy used to produce a
// NaN when rounding pushed the discriminant v² − 2dE/C fractionally
// negative while dE was still below the computed extractable maximum.
func TestDrawEnergyExactDrainNoNaN(t *testing.T) {
	c := &Capacitor{C: 1e-6 + float64(0x2540)*1e-7}
	dE := 1e-9 + float64(0x557e)*1e-8
	c.Store(dE, 0)
	got := c.Draw(dE)
	if math.IsNaN(got) || math.Abs(got-dE) > 1e-9*(1+dE) {
		t.Errorf("round trip of %.12g returned %.12g", dE, got)
	}
	if c.Q < 0 || math.IsNaN(c.Q) {
		t.Errorf("charge corrupted: %g", c.Q)
	}
}
