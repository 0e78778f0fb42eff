package trace

import (
	"bytes"
	"math"
	"testing"
)

// FuzzReadCSV holds ReadCSV and the readers of what it accepts to their
// contracts. ReadCSV must never panic. An accepted trace has a positive
// spacing and a finite duration, and At and Sample return finite,
// non-negative power at every sample time, at the 1 ms ticks just past the
// end, and far past it. Seeds live in testdata/fuzz/FuzzReadCSV; a crasher
// becomes a new seed.
func FuzzReadCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := ReadCSV("fuzz", bytes.NewReader(data))
		if err != nil {
			return
		}
		dur := tr.Duration()
		if !(tr.DT > 0) || math.IsInf(dur, 0) || math.IsNaN(dur) {
			t.Fatalf("accepted trace has DT %g and duration %g", tr.DT, dur)
		}
		check := func(what string, arg, p float64) {
			if p < 0 || math.IsInf(p, 0) || math.IsNaN(p) {
				t.Fatalf("%s(%g) = %g on a trace with DT %g and %d samples", what, arg, p, tr.DT, len(tr.Power))
			}
		}
		for i := range tr.Power {
			check("At", float64(i)*tr.DT, tr.At(float64(i)*tr.DT))
			check("Sample", float64(i), tr.Sample(i))
		}
		for k := 1; k <= 3; k++ {
			ts := dur + float64(k)*1e-3
			check("At", ts, tr.At(ts))
			check("Sample", float64(len(tr.Power)+k), tr.Sample(len(tr.Power)+k))
		}
		check("At", 2*dur, tr.At(2*dur))
	})
}
