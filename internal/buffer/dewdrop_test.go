package buffer

import (
	"math"
	"testing"
)

func newDewdrop(task float64) *Dewdrop {
	return NewDewdrop(DewdropConfig{
		C: 1e-3, VMax: 3.6, VMin: 1.8, TaskEnergy: task,
		LeakI: 1e-6, VRated: 6.3,
	})
}

func TestDewdropEnableMatchesTask(t *testing.T) {
	d := newDewdrop(1e-3) // 1 mJ task
	want := math.Sqrt(2*1e-3/1e-3 + 1.8*1.8)
	if got := d.Traits().VEnable; math.Abs(got-want) > 1e-12 {
		t.Errorf("enable %g, want %g", got, want)
	}
}

func TestDewdropEnableClampsToCeiling(t *testing.T) {
	d := newDewdrop(1) // 1 J: impossible on 1 mF
	if got := d.Traits().VEnable; got != 3.6 {
		t.Errorf("enable %g, want the 3.6 V ceiling", got)
	}
}

func TestDewdropZeroTaskWakesAtFloor(t *testing.T) {
	d := newDewdrop(0)
	if got := d.Traits().VEnable; got != 1.8 {
		t.Errorf("enable %g, want the 1.8 V floor", got)
	}
}

func TestDewdropTaskUpdate(t *testing.T) {
	d := newDewdrop(0.5e-3)
	small := d.Traits()
	d.SetTaskEnergy(2e-3)
	if d.Traits().VEnable <= small.VEnable {
		t.Error("a bigger task must raise the enable voltage")
	}
	if g := d.Traits().Guarantee; g[1] != 2e-3 || small.Guarantee[1] != 0.5e-3 {
		t.Errorf("guarantee %v after the update, %v before: want the new task energy, and the earlier traits untouched", g, small.Guarantee)
	}
}

func TestDewdropGuaranteeHolds(t *testing.T) {
	// Charged exactly to the enable voltage, the usable energy above the
	// brownout floor equals the task energy.
	task := 1.2e-3
	d := newDewdrop(task)
	v := d.Traits().VEnable
	d.Harvest(0.5 * 1e-3 * v * v)
	usable := d.Stored() - 0.5*1e-3*1.8*1.8
	if math.Abs(usable-task) > 1e-9 {
		t.Errorf("usable %g, want the task energy %g", usable, task)
	}
}

func TestDewdropBufferBasics(t *testing.T) {
	d := newDewdrop(1e-3)
	d.Harvest(2e-3)
	if d.Stored() <= 0 || d.OutputVoltage() <= 0 {
		t.Fatal("harvest had no effect")
	}
	got := d.Draw(1e-3)
	if math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("draw %g", got)
	}
	d.Harvest(1) // overcharge
	if d.Ledger().Clipped <= 0 {
		t.Error("clip not recorded")
	}
	d.Tick(0, 100, false)
	if d.Ledger().Leaked <= 0 {
		t.Error("leak not recorded")
	}
	if d.Traits().OverheadFrac != 0 {
		t.Error("overhead")
	}
	if d.Traits().Name == "" {
		t.Error("name")
	}
}

func TestDewdropLevels(t *testing.T) {
	d := newDewdrop(1e-3)
	if d.Level() != 0 {
		t.Error("empty buffer is below its task level")
	}
	v := d.Traits().VEnable
	d.Harvest(0.5 * 1e-3 * v * v)
	if d.Level() != 1 {
		t.Error("charged to the enable voltage, the task level is reached")
	}
	g := d.Traits().Guarantee
	if len(g)-1 != 1 {
		t.Error("one configuration, one level")
	}
	if g[1] != 1e-3 || g[0] != 0 {
		t.Error("guarantee ladder")
	}
	if lvl, ok := LevelFor(g, 0.9e-3); !ok || lvl != 1 {
		t.Errorf("LevelFor = %d,%v", lvl, ok)
	}
}
