package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestNonPositiveDTIsInert pins the degenerate-spacing guard: a trace whose
// DT is zero, negative, or NaN (hand-built, or the product of a buggy
// loader) has no extent in time and delivers no power, instead of injecting
// Inf/NaN into the simulation through the At position division.
func TestNonPositiveDTIsInert(t *testing.T) {
	for _, dt := range []float64{0, -1, math.NaN()} {
		tr := &Trace{DT: dt, Power: []float64{1, 2, 3}}
		if got := tr.Duration(); got != 0 {
			t.Errorf("DT=%g: Duration() = %g, want 0", dt, got)
		}
		for _, ts := range []float64{0, 0.5, 2} {
			if got := tr.At(ts); got != 0 {
				t.Errorf("DT=%g: At(%g) = %g, want 0", dt, ts, got)
			}
		}
	}
}

func TestAtInterpolates(t *testing.T) {
	tr := &Trace{DT: 1, Power: []float64{0, 2, 4}}
	cases := []struct{ ts, want float64 }{
		{0, 0}, {0.5, 1}, {1, 2}, {1.5, 3}, {2, 4}, {2.5, 4}, {5, 0}, {-1, 0},
	}
	for _, c := range cases {
		if got := tr.At(c.ts); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%g) = %g, want %g", c.ts, got, c.want)
		}
	}
}

func TestStatsBasics(t *testing.T) {
	tr := &Trace{DT: 2, Power: []float64{1, 3}}
	s := tr.Stats()
	if s.Duration != 4 {
		t.Errorf("duration %g, want 4", s.Duration)
	}
	if s.Mean != 2 {
		t.Errorf("mean %g, want 2", s.Mean)
	}
	if math.Abs(s.StdDev-1) > 1e-12 {
		t.Errorf("stddev %g, want 1", s.StdDev)
	}
	if math.Abs(s.CV-0.5) > 1e-12 {
		t.Errorf("cv %g, want 0.5", s.CV)
	}
	if s.Peak != 3 {
		t.Errorf("peak %g, want 3", s.Peak)
	}
	if math.Abs(s.Energy-8) > 1e-12 {
		t.Errorf("energy %g, want 8", s.Energy)
	}
}

func TestStatsEmpty(t *testing.T) {
	tr := &Trace{DT: 1}
	if s := tr.Stats(); s.Mean != 0 || s.CV != 0 {
		t.Error("empty trace stats should be zero")
	}
}

func TestScaleHitsExactMean(t *testing.T) {
	tr := &Trace{DT: 1, Power: []float64{1, 2, 3, 4}}
	tr.Scale(10)
	if s := tr.Stats(); math.Abs(s.Mean-10) > 1e-12 {
		t.Errorf("scaled mean %g, want 10", s.Mean)
	}
}

func TestEnergyAndTimeFractions(t *testing.T) {
	tr := &Trace{DT: 1, Power: []float64{1, 1, 1, 7}}
	if got := tr.EnergyFractionAbove(2); math.Abs(got-0.7) > 1e-12 {
		t.Errorf("energy fraction above = %g, want 0.7", got)
	}
	if got := tr.TimeFractionBelow(2); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("time fraction below = %g, want 0.75", got)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	tr := &Trace{Name: "x", DT: 0.5, Power: []float64{0.001, 0.002, 0.0035}}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV("x", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.DT != tr.DT {
		t.Errorf("dt %g, want %g", got.DT, tr.DT)
	}
	if len(got.Power) != len(tr.Power) {
		t.Fatalf("len %d, want %d", len(got.Power), len(tr.Power))
	}
	for i := range got.Power {
		if math.Abs(got.Power[i]-tr.Power[i]) > 1e-15 {
			t.Errorf("sample %d = %g, want %g", i, got.Power[i], tr.Power[i])
		}
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"time_s,power_w\n1,2\n",      // too few samples
		"time_s,power_w\n0,1\n0,2\n", // non-increasing time
		"time_s,power_w\nx,1\n1,2\n", // bad time
		"time_s,power_w\n0,y\n1,2\n", // bad power
	}
	for _, c := range cases {
		if _, err := ReadCSV("bad", strings.NewReader(c)); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
}

// TestReadCSVRejectsJitteredSpacing pins the uniform-spacing contract: DT
// is derived from the first two rows, and a later row that drifts off that
// grid — a jittered logger, a dropped sample — must be rejected with its
// row number rather than silently replayed on a stretched time base.
func TestReadCSVRejectsJitteredSpacing(t *testing.T) {
	jittered := "time_s,power_w\n0,1e-3\n0.5,1e-3\n1.0,1e-3\n1.5004,1e-3\n2.0,1e-3\n"
	_, err := ReadCSV("jitter", strings.NewReader(jittered))
	if err == nil {
		t.Fatal("a jittered CSV must not parse")
	}
	if !strings.Contains(err.Error(), "row 4") || !strings.Contains(err.Error(), "non-uniform") {
		t.Errorf("error should name row 4 and the non-uniform spacing, got: %v", err)
	}
	// A gap (dropped sample) is the same defect.
	gapped := "time_s,power_w\n0,1e-3\n0.5,1e-3\n1.5,1e-3\n"
	if _, err := ReadCSV("gap", strings.NewReader(gapped)); err == nil {
		t.Error("a gapped CSV must not parse")
	}
	// Sub-tolerance float noise (well inside 1e-9·DT) still parses: exact
	// decimal re-encodings of a written trace must round-trip.
	fine := "time_s,power_w\n0,1e-3\n0.5,1e-3\n1.0000000000001,1e-3\n"
	if _, err := ReadCSV("fine", strings.NewReader(fine)); err != nil {
		t.Errorf("sub-tolerance noise must parse, got: %v", err)
	}
}

// TestReadCSVAcceptsLargeUniformTimestamps pins the tolerance's ulp slack:
// a uniformly spaced recording whose decimal timestamps are large relative
// to DT parses even though nearest-double parsing drifts off the
// float64 product grid by more than 1e-9·DT.
func TestReadCSVAcceptsLargeUniformTimestamps(t *testing.T) {
	// Millisecond spacing starting deep into a multi-day recording:
	// ulp(260000)/2 ≈ 2.9e-11 > 1e-9·DT = 1e-12.
	var b strings.Builder
	b.WriteString("time_s,power_w\n")
	for i := 0; i < 2000; i++ {
		fmt.Fprintf(&b, "%.3f,1e-3\n", 260000+float64(i)/1000)
	}
	tr, err := ReadCSV("large", strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("a uniform large-timestamp CSV must parse: %v", err)
	}
	// DT is a difference of two large parsed doubles, so it is only
	// accurate to ~ulp(260000); that inherent error is fine.
	if math.Abs(tr.DT-1e-3) > 1e-10 || len(tr.Power) != 2000 {
		t.Errorf("dt %g samples %d, want 1e-3 and 2000", tr.DT, len(tr.Power))
	}
	// Real jitter at that scale is still caught.
	jit := strings.Replace(b.String(), "260001.500", "260001.542", 1)
	if _, err := ReadCSV("large-jitter", strings.NewReader(jit)); err == nil {
		t.Error("genuine jitter must still be rejected at large timestamps")
	}
}

// TestReadCSVRejectsBadPower pins the sample validation: a harvested-power
// recording cannot carry negative, NaN, or infinite watts — any of them
// would inject non-physical energy into the simulation.
func TestReadCSVRejectsBadPower(t *testing.T) {
	cases := map[string]string{
		"negative": "time_s,power_w\n0,1e-3\n1,-2e-3\n2,1e-3\n",
		"NaN":      "time_s,power_w\n0,1e-3\n1,NaN\n2,1e-3\n",
		"+Inf":     "time_s,power_w\n0,1e-3\n1,+Inf\n2,1e-3\n",
		"NaN time": "time_s,power_w\n0,1e-3\nNaN,1e-3\n2,1e-3\n",
	}
	for label, c := range cases {
		_, err := ReadCSV("bad", strings.NewReader(c))
		if err == nil {
			t.Errorf("%s: must not parse", label)
			continue
		}
		if !strings.Contains(err.Error(), "row 2") {
			t.Errorf("%s: error should name row 2, got: %v", label, err)
		}
	}
}

// TestTinyGenerators pins the degenerate-length guard: both synthetic
// process generators must produce finite, positive power for n==1 (where
// the AR trend's 0/(n-1) position used to be NaN) and other tiny lengths.
func TestTinyGenerators(t *testing.T) {
	for _, n := range []int{1, 2, 3} {
		ar := arLogNormal("tiny-ar", 7, n, 1e-3, 0.5, 0.9, 1.35)
		if len(ar.Power) != n {
			t.Fatalf("arLogNormal n=%d produced %d samples", n, len(ar.Power))
		}
		for i, p := range ar.Power {
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				t.Errorf("arLogNormal n=%d sample %d = %v, want finite non-negative", n, i, p)
			}
		}
		mb := markovBurst("tiny-mb", 7, n, 1e-3, 0.5e-3, 5e-3, 10, 3, 0.3)
		if len(mb.Power) != n {
			t.Fatalf("markovBurst n=%d produced %d samples", n, len(mb.Power))
		}
		for i, p := range mb.Power {
			if math.IsNaN(p) || math.IsInf(p, 0) || p < 0 {
				t.Errorf("markovBurst n=%d sample %d = %v, want finite non-negative", n, i, p)
			}
		}
	}
}

// TestTable3Statistics checks that the synthetic evaluation traces match the
// paper's Table 3: exact duration and mean power, and coefficient of
// variation within a tolerance band (the CV of a finite random realization
// cannot be pinned exactly).
func TestTable3Statistics(t *testing.T) {
	want := []struct {
		name     string
		duration float64
		mean     float64 // watts
		cv       float64
	}{
		{"RF Cart", 313, 2.12e-3, 1.03},
		{"RF Obstructed", 313, 0.227e-3, 0.61},
		{"RF Mobile", 318, 0.5e-3, 1.66},
		{"Solar Campus", 3609, 5.18e-3, 2.07},
		{"Solar Commute", 6030, 0.148e-3, 3.33},
	}
	traces := Evaluation(1)
	for i, w := range want {
		s := traces[i].Stats()
		if traces[i].Name != w.name {
			t.Errorf("trace %d name %q, want %q", i, traces[i].Name, w.name)
		}
		if s.Duration != w.duration {
			t.Errorf("%s duration %g, want %g", w.name, s.Duration, w.duration)
		}
		if math.Abs(s.Mean-w.mean) > 1e-9 {
			t.Errorf("%s mean %g, want %g", w.name, s.Mean, w.mean)
		}
		if s.CV < w.cv*0.6 || s.CV > w.cv*1.5 {
			t.Errorf("%s CV %.2f, want within 40/50%% of %.2f", w.name, s.CV, w.cv)
		}
	}
}

// TestFig1TraceShape checks the §2.1.2 observations on the pedestrian solar
// trace: the large majority of time is low-power while the large majority of
// energy arrives in spikes.
func TestFig1TraceShape(t *testing.T) {
	tr := Fig1Pedestrian(1)
	if frac := tr.TimeFractionBelow(3e-3); frac < 0.6 {
		t.Errorf("time below 3 mW = %.2f, want most of the trace", frac)
	}
	if frac := tr.EnergyFractionAbove(10e-3); frac < 0.6 {
		t.Errorf("energy above 10 mW = %.2f, want most of the energy", frac)
	}
}

func TestDeterminism(t *testing.T) {
	a := RFCart(42)
	b := RFCart(42)
	for i := range a.Power {
		if a.Power[i] != b.Power[i] {
			t.Fatalf("same seed produced different traces at sample %d", i)
		}
	}
	c := RFCart(43)
	same := true
	for i := range a.Power {
		if a.Power[i] != c.Power[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical traces")
	}
}

func TestNightTraceIsSteadyAndWeak(t *testing.T) {
	s := Night(1).Stats()
	if s.Mean > 1e-3 {
		t.Errorf("night trace mean %g W, want well under 1 mW", s.Mean)
	}
	if s.CV > 0.5 {
		t.Errorf("night trace CV %.2f, want steady (< 0.5)", s.CV)
	}
}

func TestSampleIndexing(t *testing.T) {
	tr := &Trace{Name: "s", DT: 0.5, Power: []float64{1, 2, 3}}
	if tr.Sample(-1) != 0 || tr.Sample(3) != 0 {
		t.Error("out-of-range samples must be 0")
	}
	for i, want := range tr.Power {
		if tr.Sample(i) != want {
			t.Errorf("Sample(%d) = %g, want %g", i, tr.Sample(i), want)
		}
	}
	// At sample instants, Sample and At agree.
	if tr.Sample(1) != tr.At(0.5) {
		t.Errorf("Sample(1)=%g, At(0.5)=%g", tr.Sample(1), tr.At(0.5))
	}
}

// TestAtTinySpacing pins the past-the-end guard for a recording whose
// sample spacing is tiny. A millisecond read is then ~1e297 samples in;
// converting that position to an int wrapped to a negative index and
// panicked. Every read past the last sample is 0, and reads inside the
// recording are unchanged.
func TestAtTinySpacing(t *testing.T) {
	csv := "time_s,power_w\n0,1000\n1e-300,1000\n2e-300,1000\n"
	tr, err := ReadCSV("tiny", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []float64{1e-3, 1, 1e300, math.MaxFloat64, math.Inf(1)} {
		if got := tr.At(ts); got != 0 {
			t.Errorf("At(%g) = %g, want 0 past the end", ts, got)
		}
	}
	for _, ts := range []float64{0, 1e-300, 2e-300} {
		if got := tr.At(ts); got != 1000 {
			t.Errorf("At(%g) = %g, want the recorded 1000 W", ts, got)
		}
	}
}

// TestReadCSVRejectsUnboundedDuration: finite timestamps can still span
// more than a float64 holds (−1e308 to 1e308), or imply a spacing that
// overflows. Such a trace has no finite duration to simulate and must be
// rejected.
func TestReadCSVRejectsUnboundedDuration(t *testing.T) {
	for _, c := range []string{
		"time_s,power_w\n-1e308,1\n0,1\n1e308,1\n",
		"time_s,power_w\n-1.7e308,1\n1.7e308,1\n",
	} {
		if tr, err := ReadCSV("huge", strings.NewReader(c)); err == nil {
			t.Errorf("%q parsed with DT %g and duration %g; want an error", c, tr.DT, tr.Duration())
		}
	}
}
