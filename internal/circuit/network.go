package circuit

import "math"

// Node is any storage element that presents a two-terminal capacitive
// interface: an equivalent capacitance, a terminal voltage, and the ability
// to accept terminal charge. Single capacitors, series chains, and REACT
// banks all satisfy it, which lets the charge-sharing solvers below operate
// on heterogeneous networks.
type Node interface {
	// Capacitance is the equivalent capacitance seen at the terminal.
	Capacitance() float64
	// Voltage is the terminal voltage.
	Voltage() float64
	// AddCharge moves dq through the terminal (negative to withdraw) and
	// returns the charge actually moved (withdrawals stop at empty).
	AddCharge(dq float64) float64
	// Energy is the total energy stored inside the element.
	Energy() float64
}

// Chain is a set of capacitors connected in series. Terminal charge passes
// through every member equally; terminal voltage is the sum of member
// voltages. Members need not hold equal charge — an imbalanced chain is how
// Morphy-style networks lose energy when later re-paralleled. Build one
// with NewChain.
type Chain struct {
	Caps []*Capacitor

	// seriesC is the series-equivalent capacitance. Member capacitances
	// are fixed for the life of a chain (only charge moves), so NewChain
	// computes it once; Capacitance is on the simulation's per-tick path.
	seriesC float64
}

// NewChain builds a series chain over caps.
func NewChain(caps ...*Capacitor) *Chain {
	inv := 0.0
	for _, c := range caps {
		if c.C == 0 {
			return &Chain{Caps: caps}
		}
		inv += 1 / c.C
	}
	if inv == 0 {
		return &Chain{Caps: caps}
	}
	return &Chain{Caps: caps, seriesC: 1 / inv}
}

// Capacitance returns the series-equivalent capacitance 1/Σ(1/Cᵢ), 0 for
// an empty chain or one with a 0 F member.
func (ch *Chain) Capacitance() float64 { return ch.seriesC }

// Voltage returns the terminal voltage Σ Vᵢ.
func (ch *Chain) Voltage() float64 {
	v := 0.0
	for _, c := range ch.Caps {
		v += c.Voltage()
	}
	return v
}

// Energy returns the total stored energy Σ qᵢ²/(2Cᵢ).
func (ch *Chain) Energy() float64 {
	e := 0.0
	for _, c := range ch.Caps {
		e += c.Energy()
	}
	return e
}

// Store delivers dE joules through the chain terminal (see StoreDQ) and
// returns the charge delivered. v is the terminal voltage the caller holds
// for the chain, which must equal Voltage(): a caller tracking its chains'
// voltages re-derives v after the move instead of summing the members twice.
func (ch *Chain) Store(v, dE, vDrop float64) float64 {
	return ch.AddCharge(StoreDQ(ch.Capacitance(), v, dE, vDrop))
}

// Draw withdraws up to dE joules through the chain terminal (see DrawDQ)
// and returns the energy actually removed. v is the held terminal voltage,
// as for Store.
func (ch *Chain) Draw(v, dE float64) float64 {
	dq := DrawDQ(ch.Capacitance(), v, dE)
	if dq == 0 {
		return 0
	}
	before := ch.Energy()
	ch.AddCharge(-dq)
	return clampDrawn(before - ch.Energy())
}

// AddCharge moves dq through the chain terminal: every member's charge
// changes by dq (series current is common). A member whose charge crosses
// zero keeps conducting and charges in reverse — exactly what happens to a
// drained capacitor in a series string without bypass diodes. Discharge is
// bounded by the terminal voltage reaching zero, not by any single member.
func (ch *Chain) AddCharge(dq float64) float64 {
	for _, c := range ch.Caps {
		c.Q += dq
	}
	return dq
}

// EqualizeParallel connects the nodes in parallel and lets charge
// redistribute until all terminal voltages are equal, conserving total
// terminal charge. It returns the energy dissipated in the interconnect
// (always ≥ 0 up to rounding).
//
// volts[i] must hold nodes[i].Voltage() on entry: a caller that tracks its
// node voltages passes the values it holds, one that does not derives them
// first. On return volts holds every node's voltage after the
// redistribution, so the caller's copy stays current.
//
// This is the lossy operation at the heart of the paper's §3.3.1 analysis:
// a unified switched-capacitor array pays it on every reconfiguration,
// while REACT's isolated banks never connect charged elements at different
// potentials.
func EqualizeParallel[N Node](nodes []N, volts []float64) (loss float64) {
	if len(nodes) == 0 {
		return 0
	}
	volts = volts[:len(nodes)]
	// Fast path: a network already within a nanovolt of equal is equalized
	// in steady state (the redistribution and its dissipation are below
	// rounding), and simulation loops call this every tick. It reads only
	// the held voltages.
	minV, maxV := math.Inf(1), math.Inf(-1)
	for _, nv := range volts {
		if nv < minV {
			minV = nv
		}
		if nv > maxV {
			maxV = nv
		}
	}
	if maxV-minV < 1e-9 {
		return 0
	}
	var csum, qsum float64
	for i, n := range nodes {
		c := n.Capacitance()
		csum += c
		qsum += c * volts[i]
	}
	if csum == 0 {
		return 0
	}
	v := qsum / csum
	var before float64
	for _, n := range nodes {
		before += n.Energy()
	}
	after := 0.0
	for i, n := range nodes {
		n.AddCharge(n.Capacitance() * (v - volts[i]))
		volts[i] = n.Voltage()
		after += n.Energy()
	}
	loss = before - after
	if loss < 0 && loss > -1e-15 {
		loss = 0 // rounding guard
	}
	return loss
}

// TransferDQ is the charge a diode with forward drop vDrop conducts from a
// source at vs (capacitance cs) to a destination at vd (capacitance cd)
// before V(src) = V(dst) + vDrop. It is 0 when the source is not above that
// level or either side has no capacitance.
func TransferDQ(vs, vd, cs, cd, vDrop float64) float64 {
	if vs <= vd+vDrop || cs == 0 || cd == 0 {
		return 0
	}
	// Charge balance: vs - dq/cs = vd + dq/cd + vDrop.
	return (vs - vd - vDrop) * cs * cd / (cs + cd)
}

// StoreDQ is the charge that delivers dE joules at constant power into
// capacitance c, starting at terminal voltage v, through a diode with
// forward drop vDrop, integrated exactly (including from zero volts). The
// source pays vDrop·dq in the drop; the remainder, dE − vDrop·dq, ends up
// stored. It is 0 when dE ≤ 0 or c = 0 (nowhere to put it).
//
// Derivation: pushing charge dq into capacitance C at initial voltage v
// stores v·dq + dq²/(2C); the source additionally pays vDrop·dq. Solving
// dE = (v+vDrop)·dq + dq²/(2C) for dq gives the quadratic below.
func StoreDQ(c, v, dE, vDrop float64) float64 {
	if dE <= 0 || c == 0 {
		return 0
	}
	v += vDrop
	return c * (math.Sqrt(v*v+2*dE/c) - v)
}

// DrawDQ is the terminal charge that withdraws dE joules from capacitance c
// at terminal voltage v, integrated exactly over the voltage sag, or all of
// c·v when the node holds dE or less. It is 0 when dE ≤ 0, c = 0 or v ≤ 0.
func DrawDQ(c, v, dE float64) float64 {
	if dE <= 0 || c == 0 || v <= 0 {
		return 0
	}
	// Energy extractable at the terminal before voltage reaches zero.
	maxTerm := c * v * v / 2
	// v·dq − dq²/(2C) = dE  ⇒  dq = C(v − sqrt(v² − 2dE/C)). When dE is
	// within rounding of maxTerm the radicand can come out negative even
	// though dE < maxTerm held; both cases drain the node fully.
	if rad := v*v - 2*dE/c; dE < maxTerm && rad > 0 {
		return c * (v - math.Sqrt(rad))
	}
	return c * v
}
