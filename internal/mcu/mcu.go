// Package mcu models the computational backend: an MSP430FR5994-class
// microcontroller behind a power gate that enables it when the buffer
// reaches the enable voltage (3.3 V) and cuts it off at the brownout
// voltage (1.8 V) — the intermittent-operation envelope of §4.
//
// The device draws state-dependent current from the buffer, boots for a
// fixed time after each power-up, and notifies its workload when power is
// gained or lost so atomic operations can fail realistically.
package mcu

import (
	"fmt"
	"strconv"
	"strings"

	"react/internal/buffer"
	"react/internal/ckpt"
)

// Profile is the electrical envelope of the device.
type Profile struct {
	VEnable   float64 // power-gate enable voltage
	VBrownout float64 // cutoff voltage; in-flight atomic ops fail here
	BootTime  float64 // seconds of active-current boot after power-up
	ActiveI   float64 // active-mode current, amps
	SleepI    float64 // deep-sleep current, amps
}

// DefaultProfile matches the paper's testbed: 3.3 V enable, 1.8 V cutoff,
// 1.5 mA active (a typical low-power MCU deployment, §2.1.1), 4 µA sleep,
// and a 5 ms boot/restore time.
func DefaultProfile() Profile {
	return Profile{
		VEnable:   3.3,
		VBrownout: 1.8,
		BootTime:  5e-3,
		ActiveI:   1.5e-3,
		SleepI:    4e-6,
	}
}

// DegradedProfile models an aged deployment of the same platform: sleep
// current tripled by electromigration and regulator drift, and a doubled
// boot time from slower flash — the device the degraded-hardware scenarios
// pair with worn-out buffer capacitors.
func DegradedProfile() Profile {
	p := DefaultProfile()
	p.SleepI = 12e-6
	p.BootTime = 10e-3
	return p
}

// profiles is the named-profile registry in presentation order, so the
// known platforms self-enumerate in error messages and CLI listings
// instead of living in a hand-listed switch.
var profiles = []struct {
	name  string
	build func() Profile
}{
	{"default", DefaultProfile},
	{"degraded", DegradedProfile},
}

// ProfileNames lists the registered device profiles in presentation order.
func ProfileNames() []string {
	names := make([]string, len(profiles))
	for i, p := range profiles {
		names[i] = p.name
	}
	return names
}

// NamedProfile returns a device profile by name, so declarative scenario
// specs can pick the platform without constructing it in code. The empty
// string and "default" are the paper's testbed; "degraded" is the aged
// variant.
func NamedProfile(name string) (Profile, error) {
	if name == "" {
		name = "default"
	}
	for _, p := range profiles {
		if p.name == name {
			return p.build(), nil
		}
	}
	return Profile{}, fmt.Errorf("mcu: unknown device profile %q (known: %s)", name, strings.Join(ProfileNames(), ", "))
}

// State is the device power state.
type State int

const (
	// Off: the power gate holds the device unpowered.
	Off State = iota
	// Booting: powered, restoring state, not yet running the workload.
	Booting
	// On: running the workload.
	On
	// Restoring: powered, reloading the checkpoint image after boot (only
	// with a checkpoint scheme attached; appended after On so recorded
	// state series keep their numeric meaning).
	Restoring
	// Backing: powered, writing the volatile image to non-volatile memory
	// (only with a checkpoint scheme attached).
	Backing
)

// String names the state for logs and timeline tracks.
func (s State) String() string {
	switch s {
	case Off:
		return "off"
	case Booting:
		return "booting"
	case On:
		return "on"
	case Restoring:
		return "restoring"
	case Backing:
		return "backing"
	}
	return "state(" + strconv.Itoa(int(s)) + ")"
}

// Env is the view a workload gets of its execution environment on each
// step.
type Env struct {
	// Now is the simulation time in seconds.
	Now float64
	// Voltage is the present supply voltage.
	Voltage float64
	// VMin is the brownout voltage below which the device loses power.
	VMin float64
	// Capacitance is the buffer's present equivalent capacitance. With
	// Voltage it gives software the coarse stored-energy estimate the
	// paper describes ("capacitance level is an effective surrogate for
	// stored energy", §3.4.1).
	Capacitance float64
	// OverheadFrac is the fraction of CPU time consumed by the buffer's
	// management software (REACT's 10 Hz poll costs 1.8 %).
	OverheadFrac float64
	// Guarantee is the buffer's level→energy table (buffer.Traits) when
	// the buffer supports software-directed longevity, nil otherwise.
	Guarantee []float64
	// Level is the buffer's current capacitance level.
	Level int
}

// UsableEnergy estimates the energy software can still extract before the
// device browns out, from the observable capacitance level and rail
// voltage: ½·C·(V² − V_min²).
func (e *Env) UsableEnergy() float64 {
	if e.Voltage <= e.VMin {
		return 0
	}
	return 0.5 * e.Capacitance * (e.Voltage*e.Voltage - e.VMin*e.VMin)
}

// Workload is a benchmark program running on the device. Step is called
// only while the device is On.
type Workload interface {
	// Name identifies the benchmark ("DE", "SC", "RT", "PF").
	Name() string
	// Step advances the workload by dt seconds and returns the current
	// (amps) the device draws over that interval.
	Step(env *Env, dt float64) float64
	// PowerOn is called when boot (and any checkpoint restore) completes
	// at time now.
	PowerOn(now float64)
	// PowerLost is called on brownout; in-flight atomic work fails.
	PowerLost(now float64)
	// Backup is called when an attached checkpoint scheme suspends the
	// workload at time now to write a backup image. The image captures
	// everything that survives power loss plus any freezeable volatile
	// compute; real-time operations in flight (radio bursts, timed sensor
	// reads, deadline-bound segments) cannot be suspended mid-air and
	// must be aborted with the workload's usual failure accounting.
	// Devices without a scheme never call it. Backup may be followed by
	// PowerLost in the same cycle (a brownout cutting the burst short);
	// implementations must tolerate the double notification.
	Backup(now float64)
	// Metrics reports the benchmark counters. Implementations allocate a
	// fresh map per call; the engine reads it exactly once, at cell
	// retirement — callers must not poll it on the tick path.
	Metrics() map[string]float64
}

// LostWorker is an optional Workload extension: benchmarks that can drop
// partially-acquired work in flight (a sample cut mid-burst) report the
// cumulative loss, in units of the workload's own progress counter.
// Device.Metrics surfaces it as "lost_work" on scheme-bearing runs.
type LostWorker interface {
	LostWork() float64
}

// Device couples a Profile with a Workload and tracks the on/off statistics
// the evaluation reports (latency, on-time, power-cycle lengths).
type Device struct {
	Prof Profile
	WL   Workload
	// Scheme, when non-nil, is the checkpoint backup/restore strategy the
	// device runs: its trigger policy is consulted once per tick while the
	// workload runs, backups suspend the workload for the scheme's burst,
	// and a saved image adds the scheme's restore burst after each boot.
	// A nil Scheme (the default, and what the "none" config builds) is
	// the legacy flat-boot device with no per-tick policy cost. Set it
	// before the first Step and never after.
	Scheme ckpt.Scheme

	state    State
	bootLeft float64

	// Checkpoint-burst bookkeeping; untouched when Scheme is nil.
	phaseLeft float64 // remaining seconds of the Backing/Restoring burst
	phaseI    float64 // burst current, amps
	hasCkpt   bool    // a completed image exists in non-volatile memory
	ckptAt    float64 // last backup completion (or power-on), for cadence
	// Backups and Restores count completed checkpoint bursts.
	Backups  int
	Restores int

	// FirstOn is the time the device first reached the enable voltage
	// (system latency, Table 4); −1 until it happens.
	FirstOn float64
	// OnTime accumulates powered seconds.
	OnTime float64
	// Cycles counts completed power cycles; CycleTime accumulates their
	// durations (mean cycle length is the §2.1.1 longevity measure).
	Cycles     int
	CycleTime  float64
	cycleStart float64

	// env is reused across steps so the workload's *Env view never escapes
	// to the heap on the tick path (a per-tick allocation at simulation
	// rates; workloads only read it within Step).
	env Env
	// bound is the buffer whose traits the device holds. A device steps
	// against one buffer for a whole run, so reading the traits once at
	// bind leaves one pointer comparison on the tick path.
	bound  buffer.Buffer
	traits buffer.Traits
}

// NewDevice builds a device in the Off state.
func NewDevice(prof Profile, wl Workload) *Device {
	return &Device{Prof: prof, WL: wl, FirstOn: -1}
}

// State returns the current power state.
func (d *Device) State() State { return d.state }

// Powered reports whether the device is drawing power (booting, running,
// or in a checkpoint burst).
func (d *Device) Powered() bool { return d.state != Off }

// bind reads buf's traits unless the device already holds them.
func (d *Device) bind(buf buffer.Buffer) {
	if d.bound != buf {
		d.bound, d.traits = buf, buf.Traits()
	}
}

// EnableVoltage returns the voltage at which the power gate wakes the device
// on buf: the buffer's own wake voltage when its traits set one (Dewdrop),
// the profile's otherwise.
func (d *Device) EnableVoltage(buf buffer.Buffer) float64 {
	d.bind(buf)
	if d.traits.VEnable != 0 {
		return d.traits.VEnable
	}
	return d.Prof.VEnable
}

// Step advances the device by dt seconds, drawing energy from buf.
func (d *Device) Step(now, dt float64, buf buffer.Buffer) {
	d.bind(buf)
	v := buf.OutputVoltage()
	if d.state == Off {
		if v >= d.EnableVoltage(buf) {
			d.state = Booting
			d.bootLeft = d.Prof.BootTime
			if d.FirstOn < 0 {
				d.FirstOn = now
			}
			d.cycleStart = now
		}
		return
	}
	if v <= d.Prof.VBrownout {
		d.powerLost(now)
		return
	}

	// An attached scheme's trigger preempts the workload's tick: the
	// device suspends the workload and spends this tick on the backup
	// burst instead.
	if d.state == On && d.Scheme != nil {
		d.maybeBackup(now, v, buf)
	}

	var current float64
	switch d.state {
	case Booting:
		current = d.Prof.ActiveI
		d.bootLeft -= dt
		if d.bootLeft <= 0 {
			d.finishBoot(now)
		}
	case Restoring:
		current = d.phaseI
		d.phaseLeft -= dt
		if d.phaseLeft <= 0 {
			d.Restores++
			d.turnOn(now)
		}
	case Backing:
		current = d.phaseI
		d.phaseLeft -= dt
		if d.phaseLeft <= 0 {
			d.finishBackup(now)
		}
	default: // On
		d.env = Env{
			Now:          now,
			Voltage:      v,
			VMin:         d.Prof.VBrownout,
			Capacitance:  buf.Capacitance(),
			OverheadFrac: d.traits.OverheadFrac,
			Guarantee:    d.traits.Guarantee,
			Level:        buf.Level(),
		}
		current = d.WL.Step(&d.env, dt)
	}

	need := v * current * dt
	got := buf.Draw(need)
	//lint:reactlint-ignore dtarith OnTime is a reported duty metric, never a schedule input, and the goldens pin this exact accumulation order
	d.OnTime += dt
	if got < need*(1-1e-9)-1e-15 {
		// The buffer ran dry mid-step: brownout.
		d.powerLost(now)
	}
}

// maybeBackup consults the scheme's trigger policy and, when it fires,
// suspends the workload and enters the backup burst. Only called while On
// with v above the brownout voltage.
func (d *Device) maybeBackup(now, v float64, buf buffer.Buffer) {
	st := ckpt.State{
		Now:         now,
		Voltage:     v,
		Usable:      0.5 * buf.Capacitance() * (v*v - d.Prof.VBrownout*d.Prof.VBrownout),
		SinceBackup: now - d.ckptAt,
	}
	if !d.Scheme.WillBackup(st) {
		return
	}
	bc := d.Scheme.Backup()
	d.WL.Backup(now)
	d.state = Backing
	d.phaseLeft = bc.Time
	d.phaseI = bc.I
}

// finishBoot moves a booted device to On — via the scheme's restore burst
// first when a saved image exists.
func (d *Device) finishBoot(now float64) {
	if d.Scheme != nil && d.hasCkpt {
		rc := d.Scheme.Restore()
		if rc.Time > 0 {
			d.state = Restoring
			d.phaseLeft = rc.Time
			d.phaseI = rc.I
			return
		}
		d.Restores++ // a free restore completes within the boot tick
	}
	d.turnOn(now)
}

// turnOn starts the workload and restarts the backup cadence clock.
func (d *Device) turnOn(now float64) {
	d.state = On
	d.ckptAt = now
	d.WL.PowerOn(now)
}

// finishBackup commits the image and applies the scheme's disposition:
// gate off (a controlled suspend — the image is safe, so the workload is
// not notified of a loss and the power cycle closes cleanly) or resume
// the workload where the burst left it.
func (d *Device) finishBackup(now float64) {
	d.hasCkpt = true
	d.Backups++
	d.ckptAt = now
	if d.Scheme.PowerDown() {
		d.Cycles++
		d.CycleTime += now - d.cycleStart
		d.state = Off
		return
	}
	d.state = On
}

// powerLost gates the device off and closes the current power cycle.
func (d *Device) powerLost(now float64) {
	switch d.state {
	case On, Backing:
		// A brownout mid-backup cuts the image write short: the volatile
		// state is lost exactly as in a raw brownout (any previously
		// completed image persists). The workload already saw Backup;
		// tolerating the double notification is part of its contract.
		d.WL.PowerLost(now)
	}
	if d.state != Off {
		d.Cycles++
		d.CycleTime += now - d.cycleStart
	}
	d.state = Off
}

// Metrics returns the workload's counters, augmented with the device's
// checkpoint accounting when a scheme is attached: "ckpt_backups" and
// "ckpt_restores" count completed bursts, and "lost_work" surfaces the
// workload's in-flight losses when it reports them (LostWorker). Without
// a scheme the workload's map is returned untouched, so legacy runs keep
// their exact metric key set. Like Workload.Metrics, it is read once, at
// retirement.
func (d *Device) Metrics() map[string]float64 {
	m := d.WL.Metrics()
	if d.Scheme == nil {
		return m
	}
	m["ckpt_backups"] = float64(d.Backups)
	m["ckpt_restores"] = float64(d.Restores)
	if lw, ok := d.WL.(LostWorker); ok {
		m["lost_work"] = lw.LostWork()
	}
	return m
}

// MeanCycle returns the mean uninterrupted power-cycle length, or 0 when no
// cycle has completed.
func (d *Device) MeanCycle() float64 {
	if d.Cycles == 0 {
		return 0
	}
	return d.CycleTime / float64(d.Cycles)
}
