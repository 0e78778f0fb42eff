// Package simtest provides the shared invariant checks the simulation
// tests assert — energy conservation per tick, rail voltage within bounds,
// monotonic simulated time — so the sim, workload, and scenario test
// suites exercise one set of checkers instead of each hand-rolling its
// own.
//
// The central tool is Check, which wraps any buffer.Buffer in a
// pass-through recorder that audits every Harvest/Draw/Tick against the
// buffer's own energy ledger. The wrapper passes the buffer's traits and
// level through, so wrapping never changes simulation results — a property
// the scenario determinism suite relies on.
package simtest

import (
	"fmt"
	"math"
	"testing"

	"react/internal/buffer"
	"react/internal/sim"
)

// VMaxBound is a rail-voltage ceiling above every design's overvoltage
// clip (3.6-3.65 V) plus the one-tick series-reclamation overshoot a
// unified switched-capacitor array exhibits between a contraction and the
// next clip (≈ 2×V_low ≈ 3.8 V — the spike the paper's Equation 1 bounds
// for REACT, and deliberately does not bound for Morphy). Any reading
// above it is a physics bug, not a tolerance artifact.
const VMaxBound = 4.0

// maxViolations bounds how many violations a recorder keeps; a broken
// buffer fails on the first few, and million-tick runs must not accumulate
// unbounded diagnostics.
const maxViolations = 8

// Recorder accumulates invariant violations observed by a checked buffer.
type Recorder struct {
	vmax       float64
	inner      buffer.Buffer
	lastNow    float64
	ticked     bool
	base       float64       // stored energy at wrap time
	baseLedger buffer.Ledger // ledger at wrap time
	ticks      int
	violations []string
}

func (r *Recorder) violate(format string, args ...any) {
	if len(r.violations) < maxViolations {
		r.violations = append(r.violations, fmt.Sprintf(format, args...))
	}
}

// Err returns nil when every tick upheld the invariants, or an error
// describing the first violations.
func (r *Recorder) Err() error {
	if len(r.violations) == 0 {
		return nil
	}
	return fmt.Errorf("simtest: %s: %d violation(s) over %d ticks, first: %v",
		r.inner.Traits().Name, len(r.violations), r.ticks, r.violations)
}

// Ticks returns how many Tick calls the recorder audited.
func (r *Recorder) Ticks() int { return r.ticks }

// checked is the pass-through buffer wrapper.
type checked struct {
	rec *Recorder
}

func (c *checked) Traits() buffer.Traits { return c.rec.inner.Traits() }

func (c *checked) Harvest(dE float64) {
	if dE < 0 || math.IsNaN(dE) {
		c.rec.violate("Harvest(%g): negative or NaN energy", dE)
	}
	c.rec.inner.Harvest(dE)
}

func (c *checked) Draw(dE float64) float64 {
	got := c.rec.inner.Draw(dE)
	if got < 0 || got > dE*(1+1e-9)+1e-15 {
		c.rec.violate("Draw(%g) returned %g: outside [0, requested]", dE, got)
	}
	return got
}

func (c *checked) OutputVoltage() float64 { return c.rec.inner.OutputVoltage() }
func (c *checked) Stored() float64        { return c.rec.inner.Stored() }
func (c *checked) Capacitance() float64   { return c.rec.inner.Capacitance() }
func (c *checked) Ledger() *buffer.Ledger { return c.rec.inner.Ledger() }
func (c *checked) Level() int             { return c.rec.inner.Level() }

// QuiescentOff never admits quiescence, so the batched simulator cannot
// fast-forward an audited run: it steps, and the recorder checks, every
// tick.
func (c *checked) QuiescentOff() bool { return false }

func (c *checked) Tick(now, dt float64, deviceOn bool) {
	r := c.rec
	if r.ticked && now < r.lastNow {
		r.violate("Tick at t=%g after t=%g: simulated time moved backwards", now, r.lastNow)
	}
	r.lastNow, r.ticked = now, true
	r.inner.Tick(now, dt, deviceOn)
	r.ticks++

	// Voltage bound: checked after Tick, once overvoltage clipping has
	// been applied for the step.
	if v := r.inner.OutputVoltage(); v < -1e-12 || v > r.vmax || math.IsNaN(v) {
		r.violate("t=%g: rail voltage %g outside [0, %g]", now, v, r.vmax)
	}

	// Per-tick energy conservation: the stored energy change since wrap
	// must equal what the ledger says came in minus what it says went out.
	l := r.inner.Ledger()
	in := l.Harvested - r.baseLedger.Harvested
	out := (l.Consumed - r.baseLedger.Consumed) + (l.TotalLoss() - r.baseLedger.TotalLoss())
	dStored := r.inner.Stored() - r.base
	if err := math.Abs(dStored - (in - out)); err > 1e-9+1e-6*in {
		r.violate("t=%g: energy imbalance %g J (stored Δ%g, ledger in %g out %g)",
			now, err, dStored, in, out)
	}
}

// Check wraps b in a pass-through auditor enforcing the per-tick
// invariants: non-negative harvest, draws within request, rail voltage in
// [0, vmax] after each tick, monotonic simulated time, and ledger-vs-stored
// energy conservation. vmax <= 0 selects VMaxBound. Results through the
// wrapper are identical to results without it; the run only never
// fast-forwards, so every tick is audited.
func Check(b buffer.Buffer, vmax float64) (buffer.Buffer, *Recorder) {
	if vmax <= 0 {
		vmax = VMaxBound
	}
	rec := &Recorder{
		vmax:       vmax,
		inner:      b,
		base:       b.Stored(),
		baseLedger: *b.Ledger(),
	}
	return &checked{rec: rec}, rec
}

// PreCharge deposits energy joules into b and clears its ledger, so the
// charge reads as energy the buffer held before the simulation began — the
// construction-time state of pre-charged zero-harvest studies (energy
// attacks, cold starts). Call it before handing b to sim.Run, which records
// the buffer's starting energy as Result.InitialStored.
func PreCharge(b buffer.Buffer, energy float64) {
	b.Harvest(energy)
	*b.Ledger() = buffer.Ledger{}
}

// CheckBalance asserts the run's whole-trace energy conservation error is
// within tol (the suites use 1e-6, the bound the repository's ledger tests
// established).
func CheckBalance(tb testing.TB, label string, r sim.Result, tol float64) {
	tb.Helper()
	if e := r.EnergyBalanceError(); e > tol || math.IsNaN(e) {
		tb.Errorf("%s: energy balance error %g exceeds %g", label, e, tol)
	}
}

// CheckSamples asserts a recorded voltage series is physical: strictly
// monotonic simulated time and every rail voltage within [0, vmax]
// (vmax <= 0 selects VMaxBound).
func CheckSamples(tb testing.TB, label string, samples []sim.Sample, vmax float64) {
	tb.Helper()
	if vmax <= 0 {
		vmax = VMaxBound
	}
	for i, s := range samples {
		if i > 0 && s.T <= samples[i-1].T {
			tb.Errorf("%s: sample %d time %g not after %g", label, i, s.T, samples[i-1].T)
			return
		}
		if s.V < 0 || s.V > vmax || math.IsNaN(s.V) {
			tb.Errorf("%s: sample %d voltage %g outside [0, %g]", label, i, s.V, vmax)
			return
		}
	}
}

// Cycle primes b and returns one tick of the work the simulation loop
// gives a buffer while the device is on: Harvest, Draw, then Tick, at
// dt = 1 ms with 20 mW offered and 9 mW drawn. The surplus outruns every
// design's fabric and leakage losses, so priming (100 000 ticks) leaves b
// in its largest configuration, clipping every tick — the costliest steady
// state, and one that repeated calls do not move. The per-layer benchmarks
// time the returned function; the allocation tests hold it to zero.
func Cycle(b buffer.Buffer) func() {
	const dt = 1e-3
	tick := 0
	cycle := func() {
		b.Harvest(20e-3 * dt)
		b.Draw(9e-3 * dt)
		b.Tick(float64(tick)*dt, dt, true)
		tick++
	}
	for i := 0; i < 100_000; i++ {
		cycle()
	}
	return cycle
}
