package sim

import (
	"fmt"

	"react/internal/buffer"
	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/trace"
)

// Stats counts the work a batched run performed, for throughput accounting
// and the reactd /metrics counters. The counters are cell-granular: a batch
// of 4 cells stepping one tick adds 4 to TicksSimulated.
type Stats struct {
	// TicksSimulated is the number of cell-ticks executed by the discrete
	// loop.
	TicksSimulated uint64
	// TicksFastForwarded is the number of cell-ticks skipped by the
	// dead-time fast-forward — ticks proven to be exact no-ops (device off,
	// zero harvested power, quiescent buffer) and jumped over.
	TicksFastForwarded uint64
	// TracePasses is the number of batched passes over a trace: one per
	// RunBatch call, however many cells shared it.
	TracePasses uint64
	// Cells is the per-cell tick accounting: RunBatch appends one entry
	// per batch cell in config order, so a caller reusing one Stats across
	// batches sees the concatenation. The aggregate counters above are
	// always the sums over Cells.
	Cells []CellStats
}

// CellStats is one cell's share of a batch's tick accounting, the basis of
// the service layer's run-progress reporting.
type CellStats struct {
	TicksSimulated     uint64
	TicksFastForwarded uint64
}

// tickInf is an unreachable tick bound used as "no event scheduled".
const tickInf = int(^uint(0) >> 2)

// batchCell is the per-cell state of a lockstep batch.
type batchCell struct {
	buf  buffer.Buffer
	dev  *mcu.Device
	conv harvest.Converter
	// identity marks the pass-through converter, whose Deliver call is
	// inlined on the hot path (p = max(raw, 0), bit-identical).
	identity bool
	tailCap  float64
	// v is the rail voltage at the start of the tick, carried across ticks
	// exactly as the reference loop does.
	v       float64
	initial float64
	done    bool
	result  Result
	// ticks/ffTicks are this cell's share of the batch tick accounting.
	ticks   uint64
	ffTicks uint64
	// obs binds the cell's probe, if any; untouched on the nil-probe path.
	obs observer
}

// batch is the shared state of one lockstep pass over a trace.
type batch struct {
	cells    []batchCell
	tr       *trace.Trace
	dt       float64
	aligned  bool
	traceDur float64
	// zeroFrom/zeroTo memoize the most recent zero-run scan: every trace
	// sample in [zeroFrom, zeroTo) is exactly zero. The scan cursor only
	// moves forward with the clock, so total scan work is O(len(Power)).
	zeroFrom, zeroTo int
}

// RunBatch executes n simulation cells in lockstep over a single pass of
// one shared trace: per tick, the trace is sampled once and every live cell
// harvests, steps its device, and advances its buffer; cells retire
// individually as they finish their drain tails. All cells must share one
// *trace.Trace and one timestep (the lockstep clock); converters, buffers,
// devices, tail caps and probes are per-cell.
//
// On top of the lockstep loop it fast-forwards dead time: when the trace is
// delivering exactly zero and every live cell is provably inert (device
// off, rail below its enable voltage, buffer quiescent), whole tick
// stretches are no-ops and the clock jumps to the next event — the end of
// the zero-power span, a probe's sample point, or a cell's drain-phase bound.
// Skipped ticks are never near-events: the jump target is computed with the
// loop's own float arithmetic, so results are bit-identical to running
// RunReference per cell. st, when non-nil, accumulates the tick accounting.
func RunBatch(cfgs []Config, st *Stats) ([]Result, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	for _, cfg := range cfgs {
		if cfg.Frontend == nil || cfg.Buffer == nil || cfg.Device == nil {
			return nil, fmt.Errorf("sim: frontend, buffer and device are all required")
		}
	}
	dt := cfgs[0].DT
	if dt <= 0 {
		dt = 1e-3
	}
	tr := cfgs[0].Frontend.Trace
	for _, cfg := range cfgs[1:] {
		d := cfg.DT
		if d <= 0 {
			d = 1e-3
		}
		//lint:reactlint-ignore dtarith the batch key is exact identity: nearly-equal timesteps must not share a lockstep pass
		if d != dt {
			return nil, fmt.Errorf("sim: batched cells must share one timestep (have %g and %g)", dt, d)
		}
		if cfg.Frontend.Trace != tr {
			return nil, fmt.Errorf("sim: batched cells must share one trace")
		}
	}

	b := &batch{
		cells:    make([]batchCell, len(cfgs)),
		tr:       tr,
		dt:       dt,
		aligned:  cfgs[0].Frontend.Aligned(dt),
		traceDur: tr.Duration(),
	}
	for i, cfg := range cfgs {
		c := &b.cells[i]
		c.buf, c.dev, c.conv = cfg.Buffer, cfg.Device, cfg.Frontend.Conv
		c.dev.Bind(c.buf)
		_, c.identity = c.conv.(harvest.Identity)
		c.tailCap = cfg.TailCap
		if c.tailCap <= 0 {
			c.tailCap = 600
		}
		c.initial = c.buf.Stored()
		c.v = c.buf.OutputVoltage()
		c.obs = newObserver(cfg)
	}

	live := len(b.cells)
	for tick := 0; live > 0; {
		t := float64(tick) * dt
		var raw float64
		if b.aligned {
			raw = tr.Sample(tick)
		} else {
			raw = tr.At(t)
		}
		if raw == 0 {
			if wake := b.fastForwardFrom(tick); wake > tick {
				skipped := uint64(wake - tick)
				for i := range b.cells {
					c := &b.cells[i]
					if c.done {
						continue
					}
					c.ffTicks += skipped
					if c.obs.probe != nil {
						c.obs.probe.FastForward(c.obs.cell, t, float64(wake)*dt)
					}
				}
				tick = wake
				continue
			}
		}
		for i := range b.cells {
			c := &b.cells[i]
			if c.done {
				continue
			}
			var p float64
			if c.identity {
				if raw > 0 {
					p = raw
				}
			} else {
				p = c.conv.Deliver(raw, c.v)
			}
			c.buf.Harvest(p * dt)
			c.dev.Step(t, dt)
			c.buf.Tick(t, dt, c.dev.Powered())
			c.v = c.buf.OutputVoltage()
			if c.obs.probe != nil {
				c.obs.tick(t, c.v, p, c.dev, c.buf)
			}

			c.ticks++
			tEnd := float64(tick+1) * dt
			if tEnd >= b.traceDur {
				// Drain phase: the cell retires once its device is off and
				// the rail can no longer reach the enable voltage, or at
				// its tail cap.
				if (!c.dev.Powered() && c.v < c.dev.Prof.VEnable) || tEnd >= b.traceDur+c.tailCap {
					c.retire(tEnd)
					live--
				}
			}
		}
		tick++
	}

	if st != nil {
		for i := range b.cells {
			c := &b.cells[i]
			st.TicksSimulated += c.ticks
			st.TicksFastForwarded += c.ffTicks
			st.Cells = append(st.Cells, CellStats{
				TicksSimulated:     c.ticks,
				TicksFastForwarded: c.ffTicks,
			})
		}
		st.TracePasses++
	}
	results := make([]Result, len(b.cells))
	for i := range b.cells {
		results[i] = b.cells[i].result
	}
	return results, nil
}

// retire finalizes the cell's result at the end of tick time tEnd.
func (c *batchCell) retire(tEnd float64) {
	c.done = true
	c.result = Result{
		Buffer:        c.buf.Traits().Name,
		Workload:      c.dev.WL.Name(),
		Latency:       c.dev.FirstOn,
		OnTime:        c.dev.OnTime,
		Duration:      tEnd,
		Cycles:        c.dev.Cycles,
		MeanCycle:     c.dev.MeanCycle(),
		Metrics:       c.dev.Metrics(),
		Ledger:        *c.buf.Ledger(),
		Stored:        c.buf.Stored(),
		InitialStored: c.initial,
	}
	if c.obs.probe != nil {
		c.obs.probe.Retire(c.obs.cell, tEnd)
	}
}

// fastForwardFrom returns the first tick > tick the batch must actually
// execute, or tick itself when nothing is skippable. It may only advance
// the clock when every tick in [tick, wake) is provably a complete no-op
// for every live cell:
//
//   - the trace delivers exactly zero over the whole span (verified on the
//     raw samples, conservatively for interpolated reads), so each cell's
//     converter delivers zero and Harvest(0) returns immediately;
//   - every live device is Off with its rail below the effective enable
//     voltage, so Device.Step changes nothing;
//   - every live buffer proves its device-off Tick is a no-op
//     (QuiescentOff).
//
// Frozen state stays frozen across the span, so one eligibility check
// covers every skipped tick. The wake tick is the earliest upcoming event:
// possible nonzero power, a probe's due sample point, or a cell's drain-phase
// retirement bound — each computed with the main loop's own float
// arithmetic (undershooting a boundary only costs a few stepped ticks;
// overshooting would change results, so boundaries are walked exactly).
func (b *batch) fastForwardFrom(tick int) int {
	for i := range b.cells {
		c := &b.cells[i]
		if c.done {
			continue
		}
		if c.dev.State() != mcu.Off || c.v >= c.dev.EnableVoltage() {
			return tick
		}
		if !c.identity && c.conv.Deliver(0, c.v) != 0 {
			return tick
		}
		if !c.buf.QuiescentOff() {
			return tick
		}
	}
	wake := b.zeroRunEnd(tick)
	for i := range b.cells {
		c := &b.cells[i]
		if c.done {
			continue
		}
		if w := c.obs.wake(b.dt, tick); w < wake {
			wake = w
		}
		// The drain check fires at the end of a tick: the first candidate
		// is the tick s with float64(s+1)*dt reaching the bound. A parked
		// cell below the platform enable voltage retires at the trace end;
		// one held above it by an enable hinter runs out its tail cap.
		end := b.traceDur
		if c.v >= c.dev.Prof.VEnable {
			end = b.traceDur + c.tailCap
		}
		if w := tickAtOrAfter(end, b.dt, tick+1) - 1; w < wake {
			wake = w
		}
	}
	return wake
}

// zeroRunEnd returns the first tick >= tick at which the shared trace could
// deliver nonzero power again, given it delivers zero at tick; tickInf when
// the trace is zero from here through its end (the post-trace tail delivers
// nothing forever). The answer is conservative: returning tick just means
// "no skip", never a wrong skip.
func (b *batch) zeroRunEnd(tick int) int {
	n := len(b.tr.Power)
	pos := float64(tick)
	if !b.aligned {
		// Mirror Trace.At's index computation at this tick's time.
		pos = float64(tick) * b.dt / b.tr.DT
	}
	if !(pos < float64(n)) {
		return tickInf
	}
	si := int(pos)
	// Extend (or restart) the memoized all-zero sample run to cover si.
	if si < b.zeroFrom || si >= b.zeroTo {
		b.zeroFrom, b.zeroTo = si, si
		for b.zeroTo < n && b.tr.Power[b.zeroTo] == 0 {
			b.zeroTo++
		}
	}
	if si >= b.zeroTo {
		// The current sample is itself nonzero (an interpolated read can
		// still evaluate to zero); nothing provable, no skip.
		return tick
	}
	if b.zeroTo >= n {
		return tickInf
	}
	if b.aligned {
		// Tick i reads sample i directly: wake when the run ends.
		return b.zeroTo
	}
	// Interpolated reads at index i touch samples i and i+1, so At is
	// provably zero only while the index stays at or below zeroTo-2. Find
	// the first tick whose index — computed exactly as Trace.At computes
	// it — reaches zeroTo-1.
	s := tick
	if est := int(float64(b.zeroTo-1) * b.tr.DT / b.dt); est > s {
		s = est
	}
	idx := func(s int) int { return int(float64(s) * b.dt / b.tr.DT) }
	for idx(s) < b.zeroTo-1 {
		s++
	}
	for s > tick && idx(s-1) >= b.zeroTo-1 {
		s--
	}
	return s
}

// tickAtOrAfter returns the smallest tick s >= from with
// float64(s)*dt >= x, matching the main loop's float arithmetic exactly:
// the seed division may land a few ulps off, so the loops walk to the true
// boundary.
func tickAtOrAfter(x, dt float64, from int) int {
	q := x / dt
	if q > 1e15 {
		// Beyond any reachable run length (and any exactly-representable
		// int); treat as "never".
		return tickInf
	}
	s := from
	if est := int(q); est > s {
		s = est
	}
	for float64(s)*dt < x {
		s++
	}
	for s > from && float64(s-1)*dt >= x {
		s--
	}
	return s
}
