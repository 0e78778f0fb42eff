// Package trace provides harvested-power traces: the time series of power a
// harvester delivers to the energy buffer.
//
// The paper evaluates on three RF traces recorded in an office environment
// and two solar irradiance traces from the EnHANTs dataset, replayed through
// an Ekho-style programmable power frontend. Those recordings are not
// available, so this package synthesizes traces matched to the statistics
// the paper reports in Table 3 (duration, mean power, coefficient of
// variation) and to the qualitative structure described in §2 (short
// high-power spikes carrying most of the energy). Real recordings can be
// used instead via ReadCSV.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
)

// Trace is a uniformly sampled harvested-power time series.
type Trace struct {
	Name  string
	DT    float64   // sample spacing, seconds
	Power []float64 // harvested power at each sample, watts
}

// Duration returns the total trace length in seconds. A trace with a
// non-positive (or NaN) sample spacing has no extent in time and reports 0.
func (t *Trace) Duration() float64 {
	if !(t.DT > 0) {
		return 0
	}
	return float64(len(t.Power)) * t.DT
}

// At returns the harvested power at time ts (seconds), linearly
// interpolating between samples. Times outside the trace return 0 — after
// the recording ends the harvester delivers nothing, which is how the
// paper's "run until the buffer drains" tail behaves.
func (t *Trace) At(ts float64) float64 {
	// A non-positive (or NaN) DT would turn the position division below
	// into ±Inf/NaN and inject non-finite power into the simulation; such
	// a trace delivers nothing, matching Duration's "no extent" view.
	if ts < 0 || len(t.Power) == 0 || !(t.DT > 0) {
		return 0
	}
	pos := ts / t.DT
	// Past the last sample the harvester delivers nothing. The test comes
	// before the int conversion: a tiny DT makes pos too large for an int,
	// and the conversion would wrap to a negative index.
	if !(pos < float64(len(t.Power))) {
		return 0
	}
	i := int(pos)
	if i == len(t.Power)-1 {
		return t.Power[i]
	}
	frac := pos - float64(i)
	return t.Power[i]*(1-frac) + t.Power[i+1]*frac
}

// Sample returns the recorded power at sample index i — the fast path for
// simulation loops whose timestep equals the sample spacing, where tick i
// lands exactly on sample i and interpolation degenerates to a lookup.
// Indices outside the recording return 0, matching At's tail behaviour.
func (t *Trace) Sample(i int) float64 {
	if i < 0 || i >= len(t.Power) {
		return 0
	}
	return t.Power[i]
}

// Stats summarizes a trace the way Table 3 does, plus the spike-energy
// measures used in §2.1.2.
type Stats struct {
	Duration float64 // seconds
	Mean     float64 // watts
	StdDev   float64 // watts
	CV       float64 // coefficient of variation, StdDev/Mean
	Peak     float64 // watts
	Energy   float64 // joules over the whole trace
}

// Stats computes summary statistics over the trace.
func (t *Trace) Stats() Stats {
	var s Stats
	s.Duration = t.Duration()
	n := float64(len(t.Power))
	if n == 0 {
		return s
	}
	var sum, sumSq float64
	for _, p := range t.Power {
		sum += p
		sumSq += p * p
		if p > s.Peak {
			s.Peak = p
		}
	}
	s.Mean = sum / n
	variance := sumSq/n - s.Mean*s.Mean
	if variance > 0 {
		s.StdDev = math.Sqrt(variance)
	}
	if s.Mean > 0 {
		s.CV = s.StdDev / s.Mean
	}
	s.Energy = sum * t.DT
	return s
}

// EnergyFractionAbove returns the fraction of total trace energy delivered
// while instantaneous power exceeds threshold watts. The paper's motivating
// observation (§2.1.2) is that 82 % of the pedestrian-solar trace's energy
// arrives above 10 mW.
func (t *Trace) EnergyFractionAbove(threshold float64) float64 {
	var above, total float64
	for _, p := range t.Power {
		total += p
		if p > threshold {
			above += p
		}
	}
	if total == 0 {
		return 0
	}
	return above / total
}

// TimeFractionBelow returns the fraction of trace time spent with
// instantaneous power below threshold watts.
func (t *Trace) TimeFractionBelow(threshold float64) float64 {
	if len(t.Power) == 0 {
		return 0
	}
	n := 0
	for _, p := range t.Power {
		if p < threshold {
			n++
		}
	}
	return float64(n) / float64(len(t.Power))
}

// Clip truncates the trace in place to at most the given length in seconds.
// Clipping to a length at or beyond the trace duration is a no-op.
func (t *Trace) Clip(seconds float64) {
	if t.DT <= 0 || seconds < 0 {
		return
	}
	n := int(seconds / t.DT)
	if n < len(t.Power) {
		t.Power = t.Power[:n]
	}
}

// Concat joins traces end to end under a new name. All parts must share the
// same sample spacing; a mismatch is a construction bug and panics.
func Concat(name string, parts ...*Trace) *Trace {
	if len(parts) == 0 {
		return &Trace{Name: name, DT: 1}
	}
	out := &Trace{Name: name, DT: parts[0].DT}
	for _, p := range parts {
		//lint:reactlint-ignore dtarith concatenation requires bit-identical sample spacing; a tolerance would splice mismatched grids
		if p.DT != out.DT {
			panic("trace: Concat over mismatched sample spacings")
		}
		out.Power = append(out.Power, p.Power...)
	}
	return out
}

// Scale multiplies every sample so the trace mean becomes mean watts.
func (t *Trace) Scale(mean float64) {
	s := t.Stats()
	if s.Mean == 0 {
		return
	}
	k := mean / s.Mean
	for i := range t.Power {
		t.Power[i] *= k
	}
}

// WriteCSV writes the trace as "time_s,power_w" rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "power_w"}); err != nil {
		return err
	}
	for i, p := range t.Power {
		row := []string{
			strconv.FormatFloat(float64(i)*t.DT, 'g', -1, 64),
			strconv.FormatFloat(p, 'g', -1, 64),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a trace written by WriteCSV (or any two-column
// time/power CSV with a header row and uniform spacing). The sample
// spacing is derived from the first two rows and every later timestamp
// must lie on that grid (within a 1e-9·DT tolerance); power samples must
// be finite and non-negative. Violations are rejected with the offending
// data-row number.
func ReadCSV(name string, r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	rows, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("trace: reading csv: %w", err)
	}
	if len(rows) < 3 {
		return nil, errors.New("trace: need a header and at least two samples")
	}
	tr := &Trace{Name: name}
	times := make([]float64, 0, len(rows)-1)
	for i, row := range rows[1:] {
		if len(row) < 2 {
			return nil, fmt.Errorf("trace: row %d has %d columns, want 2", i+1, len(row))
		}
		ts, err := strconv.ParseFloat(row[0], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d time: %w", i+1, err)
		}
		p, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: row %d power: %w", i+1, err)
		}
		if math.IsNaN(ts) || math.IsInf(ts, 0) {
			return nil, fmt.Errorf("trace: row %d: non-finite time %v", i+1, ts)
		}
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return nil, fmt.Errorf("trace: row %d: non-finite power %v", i+1, p)
		}
		if p < 0 {
			return nil, fmt.Errorf("trace: row %d: negative power %v (a harvester cannot deliver negative watts)", i+1, p)
		}
		times = append(times, ts)
		tr.Power = append(tr.Power, p)
	}
	tr.DT = times[1] - times[0]
	if tr.DT <= 0 {
		return nil, errors.New("trace: non-increasing timestamps")
	}
	if math.IsInf(tr.Duration(), 0) {
		return nil, errors.New("trace: the timestamps span an infinite duration")
	}
	// The contract is uniform spacing, and the simulation trusts it: a
	// jittered or gapped recording replayed on a DT grid would silently
	// stretch or compress time. Verify every consecutive difference
	// matches the spacing the first two rows imply — differences, not
	// absolute grid positions, because DT itself carries the timestamps'
	// representation error and an anchored grid times[0] + i·DT would
	// accumulate it linearly over a long recording. The tolerance is
	// 1e-9·DT plus a few ulps of the absolute timestamp (nearest-double
	// parsing of exact decimal stamps is not exact, and that noise must
	// not read as jitter).
	tol := 1e-9 * tr.DT
	for i := 1; i < len(times); i++ {
		eps := tol + 4*math.Abs(times[i])*2.220446049250313e-16 // 2^-52
		if d := times[i] - times[i-1] - tr.DT; d > eps || d < -eps {
			return nil, fmt.Errorf("trace: row %d: non-uniform spacing: step %v after row %d, want %v (from the first two rows)", i+1, times[i]-times[i-1], i, tr.DT)
		}
	}
	return tr, nil
}
