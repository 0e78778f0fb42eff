package mcu

import (
	"math"
	"strings"
	"testing"

	"react/internal/buffer"
	"react/internal/ckpt"
)

// stubWorkload records lifecycle calls and draws a fixed current.
type stubWorkload struct {
	current  float64
	steps    int
	powerOn  int
	powerOff int
	backups  int
}

func (s *stubWorkload) Name() string { return "stub" }
func (s *stubWorkload) Step(env *Env, dt float64) float64 {
	s.steps++
	return s.current
}
func (s *stubWorkload) PowerOn(now float64)   { s.powerOn++ }
func (s *stubWorkload) PowerLost(now float64) { s.powerOff++ }
func (s *stubWorkload) Backup(now float64)    { s.backups++ }
func (s *stubWorkload) Metrics() map[string]float64 {
	return map[string]float64{"steps": float64(s.steps)}
}

func newBuf(c, v float64) *buffer.Static {
	b := buffer.NewStatic(buffer.StaticConfig{C: c, VMax: 3.6})
	b.Harvest(0.5 * c * v * v)
	return b
}

func TestDeviceStaysOffBelowEnable(t *testing.T) {
	wl := &stubWorkload{current: 1e-3}
	d := NewDevice(DefaultProfile(), wl)
	buf := newBuf(1e-3, 3.0) // below the 3.3 V enable
	d.Bind(buf)
	for i := 0; i < 100; i++ {
		d.Step(float64(i)*1e-3, 1e-3)
	}
	if d.Powered() || wl.steps > 0 {
		t.Error("device must stay gated below the enable voltage")
	}
	if d.FirstOn != -1 {
		t.Error("latency must stay unset")
	}
}

func TestDeviceBootsAtEnable(t *testing.T) {
	wl := &stubWorkload{current: 1e-3}
	d := NewDevice(DefaultProfile(), wl)
	buf := newBuf(1e-3, 3.4)
	d.Bind(buf)
	for i := 0; i < 100; i++ {
		d.Step(float64(i)*1e-3, 1e-3)
	}
	if d.State() != On {
		t.Fatalf("device state %v, want On", d.State())
	}
	if wl.powerOn != 1 {
		t.Errorf("PowerOn called %d times, want 1", wl.powerOn)
	}
	if math.Abs(d.FirstOn-0) > 1e-9 {
		t.Errorf("latency %g, want 0", d.FirstOn)
	}
	if wl.steps == 0 {
		t.Error("workload never stepped")
	}
}

func TestDeviceBrownsOutAtVMin(t *testing.T) {
	wl := &stubWorkload{current: 50e-3} // heavy load drains quickly
	d := NewDevice(DefaultProfile(), wl)
	buf := newBuf(100e-6, 3.4)
	d.Bind(buf)
	for i := 0; i < 10000 && wl.powerOff == 0; i++ {
		d.Step(float64(i)*1e-3, 1e-3)
	}
	if wl.powerOff != 1 {
		t.Fatal("workload never notified of power loss")
	}
	if d.State() != Off {
		t.Error("device must be off after brownout")
	}
	if d.Cycles != 1 {
		t.Errorf("cycles %d, want 1", d.Cycles)
	}
	if d.MeanCycle() <= 0 {
		t.Error("cycle length must be recorded")
	}
}

func TestDeviceDrawsFromBuffer(t *testing.T) {
	wl := &stubWorkload{current: 1e-3}
	d := NewDevice(DefaultProfile(), wl)
	buf := newBuf(10e-3, 3.4)
	d.Bind(buf)
	before := buf.Stored()
	for i := 0; i < 1000; i++ {
		d.Step(float64(i)*1e-3, 1e-3)
	}
	if buf.Stored() >= before {
		t.Error("running device must drain the buffer")
	}
	if d.OnTime <= 0 {
		t.Error("on-time must accumulate")
	}
}

func TestMeanCycleZeroWithoutCycles(t *testing.T) {
	d := NewDevice(DefaultProfile(), &stubWorkload{})
	if d.MeanCycle() != 0 {
		t.Error("no completed cycles, mean must be 0")
	}
}

func TestEnvUsableEnergy(t *testing.T) {
	e := &Env{Voltage: 3.3, VMin: 1.8, Capacitance: 1e-3}
	want := 0.5 * 1e-3 * (3.3*3.3 - 1.8*1.8)
	if got := e.UsableEnergy(); math.Abs(got-want) > 1e-12 {
		t.Errorf("usable energy %g, want %g", got, want)
	}
	dead := &Env{Voltage: 1.5, VMin: 1.8, Capacitance: 1e-3}
	if dead.UsableEnergy() != 0 {
		t.Error("below VMin no energy is usable")
	}
}

func TestBootConsumesTime(t *testing.T) {
	prof := DefaultProfile()
	prof.BootTime = 50e-3
	wl := &stubWorkload{current: 1e-3}
	d := NewDevice(prof, wl)
	buf := newBuf(10e-3, 3.4)
	d.Bind(buf)
	for i := 0; i < 30; i++ { // 30 ms < 50 ms boot
		d.Step(float64(i)*1e-3, 1e-3)
	}
	if d.State() != Booting {
		t.Errorf("state %v, want Booting", d.State())
	}
	if wl.steps != 0 {
		t.Error("workload must not run during boot")
	}
}

// TestDefaultProfileValues pins the paper's testbed envelope.
func TestDefaultProfileValues(t *testing.T) {
	p := DefaultProfile()
	if p.VEnable != 3.3 || p.VBrownout != 1.8 {
		t.Errorf("operating envelope %g..%g, want 1.8..3.3", p.VBrownout, p.VEnable)
	}
	if p.ActiveI != 1.5e-3 {
		t.Errorf("active current %g, want 1.5 mA", p.ActiveI)
	}
}

// hintBuf wraps a static buffer with a custom enable voltage in its
// traits, exercising the wake-voltage hook (the Dewdrop mechanism).
type hintBuf struct {
	*buffer.Static
	enable float64
}

func (h hintBuf) Traits() buffer.Traits {
	t := h.Static.Traits()
	t.VEnable = h.enable
	return t
}

func TestDeviceHonoursEnableHint(t *testing.T) {
	wl := &stubWorkload{current: 1e-3}
	d := NewDevice(DefaultProfile(), wl)
	buf := hintBuf{Static: newBuf(1e-3, 2.5), enable: 2.2}
	// 2.5 V is below the default 3.3 V enable but above the 2.2 V hint.
	d.Bind(buf)
	d.Step(0, 1e-3)
	if !d.Powered() {
		t.Error("device must honour the buffer's enable hint")
	}
	d2 := NewDevice(DefaultProfile(), &stubWorkload{})
	d2.Bind(newBuf(1e-3, 2.5))
	d2.Step(0, 1e-3)
	if d2.Powered() {
		t.Error("without a hint the platform default applies")
	}
}

// TestBoundEnableVoltage pins the wake voltage Bind resolves: a Dewdrop
// buffer's task-matched trait, and the profile's own for a buffer without
// one. Each device wakes on its first step with the rail charged to that
// voltage, and not with it charged to the next float below.
func TestBoundEnableVoltage(t *testing.T) {
	dew := func() *buffer.Dewdrop {
		return buffer.NewDewdrop(buffer.DewdropConfig{C: 1e-3, VMax: 3.6, VMin: 1.8, TaskEnergy: 1e-3})
	}
	wantDew := dew().Traits().VEnable
	if wantDew == 0 || wantDew >= DefaultProfile().VEnable {
		t.Fatalf("Dewdrop trait VEnable %g: want a wake voltage below the profile's %g", wantDew, DefaultProfile().VEnable)
	}
	for _, tc := range []struct {
		name string
		buf  func() buffer.Buffer
		want float64
	}{
		{"Dewdrop trait", func() buffer.Buffer { return dew() }, wantDew},
		{"default profile", func() buffer.Buffer { return newBuf(1e-3, 0) }, DefaultProfile().VEnable},
	} {
		for i, v := range []float64{tc.want, math.Nextafter(tc.want, 0)} {
			buf := tc.buf()
			buf.Harvest(0.5 * 1e-3 * v * v)
			d := NewDevice(DefaultProfile(), &stubWorkload{})
			d.Bind(buf)
			if got := d.EnableVoltage(); got != tc.want {
				t.Fatalf("%s: EnableVoltage %g, want %g", tc.name, got, tc.want)
			}
			d.Step(0, 1e-3)
			if on, want := d.Powered(), i == 0; on != want {
				t.Errorf("%s: rail %.17g against %g: powered %v, want %v", tc.name, buf.OutputVoltage(), tc.want, on, want)
			}
		}
	}
}

func TestNamedProfile(t *testing.T) {
	def, err := NamedProfile("")
	if err != nil || def != DefaultProfile() {
		t.Errorf("empty name must be the default profile (err %v)", err)
	}
	deg, err := NamedProfile("degraded")
	if err != nil {
		t.Fatal(err)
	}
	if deg.SleepI <= def.SleepI || deg.BootTime <= def.BootTime {
		t.Errorf("degraded profile must sleep hungrier and boot slower: %+v", deg)
	}
	if deg.VEnable != def.VEnable || deg.VBrownout != def.VBrownout {
		t.Error("degradation must not move the power-gate envelope")
	}
	if _, err := NamedProfile("overclocked"); err == nil {
		t.Error("unknown profile must error")
	}
}

func TestProfileNamesEnumerate(t *testing.T) {
	names := ProfileNames()
	if len(names) < 2 || names[0] != "default" {
		t.Fatalf("ProfileNames() = %v", names)
	}
	for _, n := range names {
		if _, err := NamedProfile(n); err != nil {
			t.Errorf("listed profile %q does not build: %v", n, err)
		}
	}
	// Unknown-profile errors enumerate the registry.
	_, err := NamedProfile("overclocked")
	if err == nil || !strings.Contains(err.Error(), "default, degraded") {
		t.Errorf("error must list known profiles, got %v", err)
	}
}

func TestDeviceODABSuspendsBeforeBrownout(t *testing.T) {
	wl := &stubWorkload{current: 2e-3}
	d := NewDevice(DefaultProfile(), wl)
	d.Scheme, _ = ckpt.Build(ckpt.Config{Scheme: "odab"})
	buf := newBuf(1e-3, 3.5)
	d.Bind(buf)
	sawBacking := false
	var now float64
	for i := 0; i < 5000 && d.State() != Off || i == 0; i++ {
		now = float64(i) * 1e-3
		d.Step(now, 1e-3)
		if d.State() == Backing {
			sawBacking = true
		}
	}
	if !sawBacking {
		t.Fatal("odab never entered the backup burst")
	}
	if d.Backups != 1 {
		t.Fatalf("Backups = %d, want 1 (one all-backup per cycle)", d.Backups)
	}
	if wl.backups != 1 {
		t.Errorf("workload saw %d Backup calls, want 1", wl.backups)
	}
	if wl.powerOff != 0 {
		t.Errorf("a controlled suspend must not notify PowerLost (got %d)", wl.powerOff)
	}
	if buf.OutputVoltage() <= DefaultProfile().VBrownout {
		t.Error("odab must park above the brownout voltage, not ride it down")
	}
	if d.Cycles != 1 {
		t.Errorf("the suspend must close the power cycle: Cycles = %d", d.Cycles)
	}

	// Recharge: the next cycle boots, pays the restore burst, then runs.
	buf.Harvest(8e-3)
	sawRestoring := false
	for i := 0; i < 1000; i++ {
		d.Step(now+float64(i+1)*1e-3, 1e-3)
		if d.State() == Restoring {
			sawRestoring = true
		}
		if d.State() == On {
			break
		}
	}
	if !sawRestoring {
		t.Error("a saved image must add a restore burst after boot")
	}
	if d.Restores != 1 {
		t.Errorf("Restores = %d, want 1", d.Restores)
	}
	if wl.powerOn != 2 {
		t.Errorf("workload powered on %d times, want 2", wl.powerOn)
	}
}

func TestDevicePeriodicBackupResumes(t *testing.T) {
	wl := &stubWorkload{current: 1e-3}
	d := NewDevice(DefaultProfile(), wl)
	d.Scheme, _ = ckpt.Build(ckpt.Config{Scheme: "periodic", Interval: 0.2})
	buf := newBuf(10e-3, 3.5)
	d.Bind(buf)
	for i := 0; i < 1000; i++ { // 1 s: boot + ~2-3 snapshot cycles
		d.Step(float64(i)*1e-3, 1e-3)
	}
	if d.Backups < 2 {
		t.Fatalf("Backups = %d, want several snapshots over 1 s at 0.2 s cadence", d.Backups)
	}
	if d.State() != On {
		t.Errorf("periodic snapshots must resume: state %v", d.State())
	}
	if d.Cycles != 0 || wl.powerOff != 0 {
		t.Errorf("no power cycle may close (Cycles %d, PowerLost %d)", d.Cycles, wl.powerOff)
	}
	if wl.backups != d.Backups {
		t.Errorf("workload saw %d Backup calls for %d backups", wl.backups, d.Backups)
	}
	if wl.powerOn != 1 {
		t.Errorf("workload powered on %d times, want 1", wl.powerOn)
	}
}

func TestDeviceMetricsMergeSchemeCounters(t *testing.T) {
	wl := &stubWorkload{current: 1e-3}
	d := NewDevice(DefaultProfile(), wl)
	m := d.Metrics()
	if _, ok := m["ckpt_backups"]; ok {
		t.Error("a scheme-less device must not add checkpoint metrics")
	}
	d.Scheme, _ = ckpt.Build(ckpt.Config{Scheme: "periodic"})
	d.Backups, d.Restores = 3, 2
	m = d.Metrics()
	if m["ckpt_backups"] != 3 || m["ckpt_restores"] != 2 {
		t.Errorf("scheme counters not merged: %v", m)
	}
	if m["steps"] != float64(wl.steps) {
		t.Error("workload counters must pass through")
	}
}
