package sim_test

// Equivalence suite for the batched executor: sim.RunBatch (lockstep
// multi-cell execution + dead-time fast-forward) must reproduce
// sim.RunReference bit for bit — not approximately — for any batch size,
// any timestep alignment, and any buffer/workload pairing. Everything here
// compares full Result values with reflect.DeepEqual: one ulp of drift is
// a failure.

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"react/internal/buffer"
	"react/internal/ckpt"
	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/trace"
)

// synthTrace builds a random piecewise-constant trace with injected
// zero-power runs — the dead time the fast-forward path exists to skip —
// interleaved with active segments at RF-harvest power levels.
func synthTrace(r *rand.Rand, n int) *trace.Trace {
	p := make([]float64, n)
	for i := 0; i < n; {
		run := 1 + r.Intn(n/6+1)
		level := 0.0
		if r.Intn(3) > 0 { // one third of the segments are dead time
			level = (0.5 + r.Float64()) * 4e-3
		}
		for j := 0; j < run && i < n; j++ {
			p[i] = level
			i++
		}
	}
	return &trace.Trace{Name: "synth", DT: 1e-3, Power: p}
}

// presetCell builds one fresh sim.Config over a shared trace. Every call
// constructs fresh mutable state (buffer, device, workload), so a
// reference run and a batched run of the same cell share nothing.
func presetCell(t *testing.T, tr *trace.Trace, bufName, bench string, dt float64, seed uint64, recordDT float64) sim.Config {
	t.Helper()
	buf, err := scenario.NewPresetBuffer(bufName)
	if err != nil {
		t.Fatal(err)
	}
	wl, err := scenario.WorkloadSpec{Bench: bench}.Build(tr, seed, mcu.DefaultProfile())
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		DT:       dt,
		Frontend: harvest.NewFrontend(tr, nil),
		Buffer:   buf,
		Device:   mcu.NewDevice(mcu.DefaultProfile(), wl),
		TailCap:  20,
		RecordDT: recordDT,
	}
}

// TestBatchOfOneMatchesReference is the randomized property: for random
// traces (with zero runs), aligned and non-aligned timesteps, every preset
// buffer and a mix of workloads, a batch of one returns exactly what the
// reference per-tick loop returns.
func TestBatchOfOneMatchesReference(t *testing.T) {
	buffers := []string{"770 µF", "10 mF", "17 mF", "Morphy", "REACT", "Capybara", "Dewdrop"}
	benches := []string{"DE", "SC", "RT", "PF"}
	for seed := uint64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(int64(seed)))
		tr := synthTrace(r, 1500)
		for _, dt := range []float64{1e-3, 0.75e-3} {
			for i, bufName := range buffers {
				bench := benches[i%len(benches)]
				recordDT := 0.0
				if i%2 == 0 {
					recordDT = 0.5
				}
				want, err := sim.RunReference(presetCell(t, tr, bufName, bench, dt, seed, recordDT))
				if err != nil {
					t.Fatal(err)
				}
				var st sim.Stats
				got, err := sim.RunBatch([]sim.Config{presetCell(t, tr, bufName, bench, dt, seed, recordDT)}, &st)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[0], want) {
					t.Errorf("seed %d dt %g %s/%s: batch of one diverges from reference\n got %+v\nwant %+v",
						seed, dt, bufName, bench, got[0], want)
				}
				if total := uint64(want.Duration/dt + 0.5); st.TicksSimulated+st.TicksFastForwarded != total {
					t.Errorf("seed %d dt %g %s/%s: ticks %d simulated + %d fast-forwarded != %d total",
						seed, dt, bufName, bench, st.TicksSimulated, st.TicksFastForwarded, total)
				}
			}
		}
	}
}

// TestLockstepBatchMatchesReference runs a heterogeneous batch — every
// preset buffer, mixed workloads, including the never-quiescent Morphy —
// in one lockstep pass, in pairs, and one by one through the reference
// loop: all three must agree bitwise, so the batch size is unobservable.
func TestLockstepBatchMatchesReference(t *testing.T) {
	buffers := []string{"770 µF", "10 mF", "17 mF", "Morphy", "REACT", "Capybara", "Dewdrop"}
	benches := []string{"DE", "SC", "RT", "PF"}
	r := rand.New(rand.NewSource(7))
	tr := synthTrace(r, 1500)
	const seed, dt = 2, 1e-3

	mk := func(i int) sim.Config {
		return presetCell(t, tr, buffers[i], benches[i%len(benches)], dt, seed, 0)
	}
	want := make([]sim.Result, len(buffers))
	for i := range buffers {
		res, err := sim.RunReference(mk(i))
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}

	all := make([]sim.Config, len(buffers))
	for i := range buffers {
		all[i] = mk(i)
	}
	got, err := sim.RunBatch(all, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range buffers {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("full batch: cell %d (%s) diverges from reference", i, buffers[i])
		}
	}

	for lo := 0; lo < len(buffers); lo += 2 {
		hi := lo + 2
		if hi > len(buffers) {
			hi = len(buffers)
		}
		pair := make([]sim.Config, 0, 2)
		for i := lo; i < hi; i++ {
			pair = append(pair, mk(i))
		}
		res, err := sim.RunBatch(pair, nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			if !reflect.DeepEqual(res[i-lo], want[i]) {
				t.Errorf("pair batch [%d,%d): cell %d (%s) diverges from reference", lo, hi, i, buffers[i])
			}
		}
	}
}

// TestFastForwardSkipsDeadTime crafts the case the fast-forward exists
// for — a long all-zero cold-start prefix — and asserts the batch both
// skipped ticks and still matched the reference bitwise, aligned and not.
func TestFastForwardSkipsDeadTime(t *testing.T) {
	p := make([]float64, 8000)
	for i := 5000; i < len(p); i++ {
		p[i] = 3e-3
	}
	tr := &trace.Trace{Name: "cold", DT: 1e-3, Power: p}
	for _, dt := range []float64{1e-3, 0.75e-3} {
		for _, bufName := range []string{"REACT", "770 µF", "Capybara"} {
			want, err := sim.RunReference(presetCell(t, tr, bufName, "DE", dt, 1, 0.5))
			if err != nil {
				t.Fatal(err)
			}
			var st sim.Stats
			got, err := sim.RunBatch([]sim.Config{presetCell(t, tr, bufName, "DE", dt, 1, 0.5)}, &st)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[0], want) {
				t.Errorf("dt %g %s: fast-forwarded run diverges from reference", dt, bufName)
			}
			if st.TicksFastForwarded == 0 {
				t.Errorf("dt %g %s: fast-forward never engaged over a 5000-sample dead prefix", dt, bufName)
			}
			if st.TracePasses != 1 {
				t.Errorf("dt %g %s: TracePasses = %d, want 1", dt, bufName, st.TracePasses)
			}
		}
	}
}

// TestRunBatchValidation covers the batch-compatibility errors: mixed
// timesteps, mixed traces, and a missing component.
func TestRunBatchValidation(t *testing.T) {
	tr := &trace.Trace{Name: "t", DT: 1e-3, Power: []float64{1e-3, 1e-3}}
	tr2 := &trace.Trace{Name: "t2", DT: 1e-3, Power: []float64{1e-3, 1e-3}}
	a := presetCell(t, tr, "770 µF", "DE", 1e-3, 1, 0)
	b := presetCell(t, tr, "770 µF", "DE", 2e-3, 1, 0)
	if _, err := sim.RunBatch([]sim.Config{a, b}, nil); err == nil || !strings.Contains(err.Error(), "timestep") {
		t.Errorf("mixed timesteps: err = %v, want timestep mismatch", err)
	}
	c := presetCell(t, tr2, "770 µF", "DE", 1e-3, 1, 0)
	if _, err := sim.RunBatch([]sim.Config{a, c}, nil); err == nil || !strings.Contains(err.Error(), "trace") {
		t.Errorf("mixed traces: err = %v, want trace mismatch", err)
	}
	bad := presetCell(t, tr, "770 µF", "DE", 1e-3, 1, 0)
	bad.Buffer = nil
	if _, err := sim.RunBatch([]sim.Config{bad}, nil); err == nil {
		t.Error("nil buffer: expected an error")
	}
	if res, err := sim.RunBatch(nil, nil); err != nil || res != nil {
		t.Errorf("empty batch: got (%v, %v), want (nil, nil)", res, err)
	}
}

// schemeCell is presetCell with a checkpoint scheme attached to the
// device — the configuration the scenario layer builds for a spec with a
// checkpoint block.
func schemeCell(t *testing.T, tr *trace.Trace, bufName, bench, scheme string, dt float64, seed uint64) sim.Config {
	t.Helper()
	cfg := presetCell(t, tr, bufName, bench, dt, seed, 0)
	s, err := ckpt.Build(ckpt.Config{Scheme: scheme})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Device.Scheme = s
	return cfg
}

// TestSchemeBatchMatchesReference extends the equivalence property to
// checkpoint-bearing devices: with backups firing mid-trace (periodic) and
// controlled suspends parking the device with a saved image (odab), the
// batched executor — including its dead-time fast-forward — must stay
// bit-identical to the reference loop. The randomized traces' zero-power
// runs are what make this a fast-forward soundness test: a backup or
// restore burst in flight holds the device in a powered state, so
// quiescence can never skip over a pending burst.
func TestSchemeBatchMatchesReference(t *testing.T) {
	buffers := []string{"770 µF", "10 mF", "REACT", "Dewdrop"}
	benches := []string{"DE", "SC", "MIX", "ML"}
	schemes := []string{"odab", "periodic"}
	for seed := uint64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(int64(40 + seed)))
		tr := synthTrace(r, 1500)
		for _, dt := range []float64{1e-3, 0.75e-3} {
			for i, bufName := range buffers {
				bench := benches[i%len(benches)]
				scheme := schemes[i%len(schemes)]
				want, err := sim.RunReference(schemeCell(t, tr, bufName, bench, scheme, dt, seed))
				if err != nil {
					t.Fatal(err)
				}
				got, err := sim.RunBatch([]sim.Config{schemeCell(t, tr, bufName, bench, scheme, dt, seed)}, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got[0], want) {
					t.Errorf("seed %d dt %g %s/%s/%s: scheme batch diverges from reference\n got %+v\nwant %+v",
						seed, dt, bufName, bench, scheme, got[0], want)
				}
			}
		}
	}
}

// TestSchemeMixedLockstepBatch runs scheme-bearing and scheme-less cells
// in one lockstep pass: per-cell schemes must not leak across the batch.
func TestSchemeMixedLockstepBatch(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	tr := synthTrace(r, 1500)
	const seed, dt = 1, 1e-3
	mk := func() []sim.Config {
		return []sim.Config{
			presetCell(t, tr, "770 µF", "DE", dt, seed, 0),
			schemeCell(t, tr, "770 µF", "DE", "odab", dt, seed),
			schemeCell(t, tr, "REACT", "MIX", "periodic", dt, seed),
			presetCell(t, tr, "REACT", "MIX", dt, seed, 0),
		}
	}
	cfgs := mk()
	want := make([]sim.Result, len(cfgs))
	for i, cfg := range mk() {
		res, err := sim.RunReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got, err := sim.RunBatch(cfgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("mixed batch: cell %d diverges from reference", i)
		}
	}
	// The scheme runs differ from their scheme-less twins (the axis is
	// real) and carry the checkpoint counters.
	if reflect.DeepEqual(got[0].Metrics, got[1].Metrics) {
		t.Error("odab run is metric-identical to the flat-boot run; the scheme did nothing")
	}
	if _, ok := got[1].Metrics["ckpt_backups"]; !ok {
		t.Error("scheme run must surface ckpt_backups")
	}
	if _, ok := got[0].Metrics["ckpt_backups"]; ok {
		t.Error("scheme-less run must not surface checkpoint metrics")
	}
}

// TestSchemeFastForwardStillEngages pins that an odab device parked with
// a saved image over a long dead tail is still fast-forwardable — the
// suspend ends in Off, the one state quiescence may skip. The buffer is a
// leak-free static cap so the parked charge is provably quiescent; preset
// buffers leak, which (correctly) keeps them stepping tick by tick.
func TestSchemeFastForwardStillEngages(t *testing.T) {
	p := make([]float64, 9000)
	for i := 0; i < 3000; i++ {
		p[i] = 3e-3 // charge + run, then a 6000-sample dead tail
	}
	tr := &trace.Trace{Name: "fade", DT: 1e-3, Power: p}
	mk := func() sim.Config {
		wl, err := scenario.WorkloadSpec{Bench: "DE"}.Build(tr, 1, mcu.DefaultProfile())
		if err != nil {
			t.Fatal(err)
		}
		dev := mcu.NewDevice(mcu.DefaultProfile(), wl)
		dev.Scheme, err = ckpt.Build(ckpt.Config{Scheme: "odab"})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Config{
			DT:       1e-3,
			Frontend: harvest.NewFrontend(tr, nil),
			Buffer:   buffer.NewStatic(buffer.StaticConfig{C: 770e-6, VMax: 3.6}),
			Device:   dev,
			TailCap:  20,
		}
	}
	want, err := sim.RunReference(mk())
	if err != nil {
		t.Fatal(err)
	}
	var st sim.Stats
	got, err := sim.RunBatch([]sim.Config{mk()}, &st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got[0], want) {
		t.Error("fast-forwarded odab run diverges from reference")
	}
	if want.Metrics["ckpt_backups"] == 0 {
		t.Fatalf("setup: odab never backed up (metrics %v)", want.Metrics)
	}
	if st.TicksFastForwarded == 0 {
		t.Error("fast-forward never engaged over the dead tail of a suspended device")
	}
}

// TestRunBatchTinyTraceSpacing replays a recording whose sample spacing is
// 1e-300 s at a 1 ms timestep. Every tick after the first reads ~1e297
// samples past the start; Trace.At and the batch's dead-time scan once
// converted that position to a wrapped negative index and panicked. The
// run must finish, and match the reference loop bit for bit. At 1000 W
// every preset wakes. The leak-free Dewdrop charges to 3.4 V on the first
// tick, which is above the profile's 3.3 V retirement bound but below its
// own 3.6 V wake voltage; it idles off and quiescent through the drain
// tail, so the dead-time scan runs past the end of the recording.
func TestRunBatchTinyTraceSpacing(t *testing.T) {
	leakFree := func() buffer.Buffer {
		return buffer.NewDewdrop(buffer.DewdropConfig{C: 770e-6, VMax: 3.6, VMin: 1.8, TaskEnergy: 1})
	}
	cases := []struct {
		buf   string
		power float64
		build func() buffer.Buffer
	}{
		{"REACT", 1000, nil}, {"770 µF", 1000, nil}, {"Morphy", 1000, nil},
		{"Capybara", 1000, nil}, {"Dewdrop", 1000, nil},
		{"leak-free Dewdrop", 0.5 * 770e-6 * 3.4 * 3.4 / 1e-3, leakFree},
	}
	for _, c := range cases {
		p := c.power
		tr := &trace.Trace{Name: "tiny", DT: 1e-300, Power: []float64{p, p, p}}
		cell := func() sim.Config {
			if c.build == nil {
				return presetCell(t, tr, c.buf, "DE", 1e-3, 1, 0)
			}
			cfg := presetCell(t, tr, "770 µF", "DE", 1e-3, 1, 0)
			cfg.Buffer = c.build()
			return cfg
		}
		want, err := sim.RunReference(cell())
		if err != nil {
			t.Fatal(err)
		}
		var st sim.Stats
		got, err := sim.RunBatch([]sim.Config{cell()}, &st)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got[0], want) {
			t.Errorf("%s: batched run diverges from reference", c.buf)
		}
		if c.build != nil && st.TicksFastForwarded == 0 {
			t.Errorf("%s: the drain tail was stepped, not fast-forwarded", c.buf)
		}
	}
}
