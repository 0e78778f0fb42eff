package sim

import (
	"math"
	"testing"

	"react/internal/buffer"
	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/trace"
)

// constWorkload draws a constant current and counts its steps.
type constWorkload struct {
	current float64
	steps   int
	losses  int
}

func (w *constWorkload) Name() string                          { return "const" }
func (w *constWorkload) Step(env *mcu.Env, dt float64) float64 { w.steps++; return w.current }
func (w *constWorkload) PowerOn(now float64)                   {}
func (w *constWorkload) PowerLost(now float64)                 { w.losses++ }
func (w *constWorkload) Backup(now float64)                    {}
func (w *constWorkload) Metrics() map[string]float64 {
	return map[string]float64{"steps": float64(w.steps)}
}

func steadyTrace(p float64, n int) *trace.Trace {
	tr := &trace.Trace{Name: "steady", DT: 1, Power: make([]float64, n)}
	for i := range tr.Power {
		tr.Power[i] = p
	}
	return tr
}

func testConfig(p float64, dur int, current float64) Config {
	return Config{
		Frontend: harvest.NewFrontend(steadyTrace(p, dur), nil),
		Buffer:   buffer.NewStatic(buffer.StaticConfig{C: 1e-3, VMax: 3.6}),
		Device:   mcu.NewDevice(mcu.DefaultProfile(), &constWorkload{current: current}),
	}
}

func TestRunRequiresComponents(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("missing components must be rejected")
	}
}

func TestSteadySurplusRunsContinuously(t *testing.T) {
	// 10 mW in, ~3 mW load: the system starts once and never stops.
	res, err := Run(testConfig(10e-3, 30, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency < 0 || res.Latency > 2 {
		t.Errorf("latency %g, want under 2 s at 10 mW on 1 mF", res.Latency)
	}
	if res.OnFraction() < 0.8 {
		t.Errorf("duty %.2f, want near-continuous operation", res.OnFraction())
	}
	if res.Cycles > 1 {
		t.Errorf("cycles %d, want at most the final drain", res.Cycles)
	}
}

func TestDeficitCycles(t *testing.T) {
	// 1 mW in, ~5 mW load: classic intermittent operation.
	res, err := Run(testConfig(1e-3, 60, 1.5e-3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < 3 {
		t.Errorf("cycles %d, want repeated charge/discharge bursts", res.Cycles)
	}
	if res.OnFraction() > 0.6 {
		t.Errorf("duty %.2f, too high for a 5x deficit", res.OnFraction())
	}
}

func TestNeverStarts(t *testing.T) {
	// 1 µW can never charge 1 mF to 3.3 V within 10 s against leakage.
	cfg := testConfig(1e-6, 10, 1e-3)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != -1 {
		t.Errorf("latency %g, want -1 (never started)", res.Latency)
	}
	if res.OnTime != 0 {
		t.Error("system never on")
	}
}

func TestDrainPhaseExtendsPastTrace(t *testing.T) {
	// Strong charge, then the trace ends: the run continues until the
	// buffer drains below the enable voltage.
	res, err := Run(testConfig(20e-3, 10, 1e-3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration <= 10 {
		t.Errorf("duration %g, want a drain tail past the 10 s trace", res.Duration)
	}
	if res.Stored > 0.5*1e-3*3.3*3.3 {
		t.Error("buffer should have drained below the enable level")
	}
}

func TestTailCapBoundsRun(t *testing.T) {
	cfg := testConfig(20e-3, 10, 1e-6) // trivial load: drain would take ages
	cfg.TailCap = 5
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Duration > 16 {
		t.Errorf("duration %g, want capped at trace+tail", res.Duration)
	}
}

// series is a Probe that keeps a cell's sampled series and nothing else.
type series struct {
	dt      float64
	samples []Sample
}

func (s *series) SampleDT() float64                            { return s.dt }
func (s *series) Sample(_ int, p Sample)                       { s.samples = append(s.samples, p) }
func (*series) DeviceState(int, float64, mcu.State, mcu.State) {}
func (*series) Checkpoint(int, float64, int, int)              {}
func (*series) BufferReconfig(int, float64, float64)           {}
func (*series) FastForward(int, float64, float64)              {}
func (*series) Retire(int, float64)                            {}

// record runs cfg with a probe sampling every dt seconds.
func record(t *testing.T, cfg Config, dt float64) (Result, []Sample) {
	t.Helper()
	s := &series{dt: dt}
	cfg.Probe = s
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, s.samples
}

func TestRecording(t *testing.T) {
	_, samples := record(t, testConfig(10e-3, 20, 1e-3), 1.0)
	if len(samples) < 15 {
		t.Fatalf("recorded %d samples, want ~20", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].T <= samples[i-1].T {
			t.Fatal("samples must be time-ordered")
		}
	}
	if samples[5].C != 1e-3 {
		t.Error("sample capacitance missing")
	}
}

// TestRecordScheduleDoesNotDrift pins the sampling cadence: point k is
// taken on the first tick at or after k*SampleDT, for a SampleDT (0.1 s)
// that is not a binary fraction. An accumulated next += SampleDT schedule
// drifts off this grid over long runs, dropping or duplicating points near
// the boundaries.
func TestRecordScheduleDoesNotDrift(t *testing.T) {
	const dt, sampleDT = 1e-3, 0.1
	res, samples := record(t, testConfig(10e-3, 60, 1e-3), sampleDT)
	if want := int(res.Duration/sampleDT) - 1; len(samples) < want {
		t.Fatalf("recorded %d samples over %.1f s, want at least %d", len(samples), res.Duration, want)
	}
	for k, s := range samples {
		// Point k lands on the first tick at or after its due instant —
		// within one timestep (plus an ulp of slack for the tick-grid
		// product rounding).
		due := float64(k) * sampleDT
		if s.T < due || s.T > due+dt*(1+1e-9) {
			t.Fatalf("sample %d at t=%.17g, want within one tick of its %.17g due time", k, s.T, due)
		}
	}
}

func TestEnergyBalance(t *testing.T) {
	res, err := Run(testConfig(5e-3, 60, 1.5e-3))
	if err != nil {
		t.Fatal(err)
	}
	if e := res.EnergyBalanceError(); e > 1e-9 {
		t.Errorf("energy balance error %g", e)
	}
	l := res.Ledger
	if l.Harvested <= 0 || l.Consumed <= 0 {
		t.Error("ledger not populated")
	}
}

func TestTimestepConvergence(t *testing.T) {
	run := func(dt float64) float64 {
		cfg := testConfig(2e-3, 120, 1.5e-3)
		cfg.DT = dt
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.OnTime
	}
	fine := run(0.25e-3)
	coarse := run(2e-3)
	if math.Abs(fine-coarse)/fine > 0.05 {
		t.Errorf("on-time diverges across timesteps: %.3f vs %.3f", fine, coarse)
	}
}

func TestOnFractionZeroDuration(t *testing.T) {
	var r Result
	if r.OnFraction() != 0 {
		t.Error("zero duration must yield zero duty")
	}
}

// TestAlignedFastPathMatchesInterpolation: when the trace sample spacing
// equals the timestep, Run takes the direct-indexing fast path; for a trace
// whose interpolation is exact (constant power), the result must match the
// interpolated path over an equivalent trace to within one boundary tick
// (accumulated floating-point time can land the last tick a hair before
// the trace end, giving the interpolated path one extra power sample).
func TestAlignedFastPathMatchesInterpolation(t *testing.T) {
	const p, dur = 5e-3, 60.0
	run := func(traceDT float64) Result {
		tr := &trace.Trace{Name: "steady", DT: traceDT, Power: make([]float64, int(dur/traceDT))}
		for i := range tr.Power {
			tr.Power[i] = p
		}
		cfg := Config{
			DT:       1e-3,
			Frontend: harvest.NewFrontend(tr, nil),
			Buffer:   buffer.NewStatic(buffer.StaticConfig{C: 1e-3, VMax: 3.6}),
			Device:   mcu.NewDevice(mcu.DefaultProfile(), &constWorkload{current: 1.5e-3}),
		}
		if cfg.Frontend.Aligned(cfg.DT) != (traceDT == 1e-3) {
			t.Fatalf("alignment detection wrong for trace DT %g", traceDT)
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast := run(1e-3)      // aligned: one sample per tick
	slow := run(1.0)       // interpolated: 1000 ticks per sample
	const tickE = p * 1e-3 // energy of one boundary tick
	if math.Abs(fast.OnTime-slow.OnTime) > 2e-3 || fast.Latency != slow.Latency ||
		math.Abs(fast.Ledger.Harvested-slow.Ledger.Harvested) > 1.5*tickE {
		t.Errorf("fast path diverges: on %g vs %g, harvested %g vs %g",
			fast.OnTime, slow.OnTime, fast.Ledger.Harvested, slow.Ledger.Harvested)
	}
}
