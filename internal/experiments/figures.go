package experiments

import (
	"context"
	"fmt"
	"io"
	"strconv"

	"react/internal/buffer"
	"react/internal/core"
	"react/internal/obs"
	"react/internal/scenario"
	"react/internal/sim"
	"react/internal/trace"
)

// backgroundSpec is the §2.1 analysis over tr: a system drawing 1.5 mA in
// active mode, enabled at 3.6 V and cut off at 1.8 V, running continuously
// whenever powered, with one static buffer per capacitance. The buffers
// clip just above the enable voltage like the Figure 1 plot shows.
func backgroundSpec(tr *trace.Trace, caps ...float64) *scenario.Spec {
	sp := &scenario.Spec{
		Name:     "background",
		Trace:    scenario.TraceSpec{Loaded: tr},
		Device:   scenario.DeviceSpec{VEnable: 3.6},
		Workload: scenario.WorkloadSpec{Bench: "DE", ActiveI: 1.5e-3},
	}
	for _, c := range caps {
		sp.Buffers = append(sp.Buffers, scenario.BufferSpec{
			Label:  fmt.Sprintf("%g mF", c*1e3),
			Static: &scenario.StaticSpec{C: c, VMax: 3.65},
		})
	}
	return sp
}

// runSpec simulates every buffer of an ad-hoc spec.
func runSpec(sp *scenario.Spec, opt Options) ([]sim.Result, error) {
	run, err := sp.Run(context.Background(), nil, opt)
	if err != nil {
		return nil, err
	}
	return run.Results, nil
}

// Figure1Run holds one buffer's series for Figure 1.
type Figure1Run struct {
	Label   string
	Result  sim.Result
	Samples []sim.Sample
}

// Figure1 reproduces the paper's Figure 1: a 1 mF and a 300 mF static
// buffer on the simulated pedestrian solar harvester, with the harvested
// power series and each buffer's voltage/on-time series.
func Figure1(opt Options) ([]Figure1Run, error) {
	sp := backgroundSpec(trace.Fig1Pedestrian(seed(opt)), 1e-3, 300e-3)
	sampler := obs.NewSampler(1.0, opt.Probe)
	opt.Probe = sampler
	res, err := runSpec(sp, opt)
	if err != nil {
		return nil, err
	}
	runs := make([]Figure1Run, len(res))
	for i, r := range res {
		runs[i] = Figure1Run{Label: sp.Buffers[i].DisplayName(), Result: r, Samples: sampler.Series(i)}
	}
	return runs, nil
}

// Background reproduces the quantitative claims woven through §2.1: the
// reactivity/longevity/efficiency profile of small vs large static buffers
// on the pedestrian trace, the spike statistics, and the night-time duty
// cycles.
type Background struct {
	// Pedestrian-trace facts (paper: 1 mF charges ≈8× sooner; mean cycle
	// 10 s vs 880 s; duty 27 % vs 49 %).
	LatencySmall, LatencyLarge float64
	CycleSmall, CycleLarge     float64
	DutySmall, DutyLarge       float64
	// Trace shape (paper: 82 % of energy above 10 mW, 77 % of time below
	// 3 mW).
	EnergyAbove10mW, TimeBelow3mW float64
	// Night duty cycles (paper: 5.7 % for 1 mF vs 3.3 % for 10 mF; the
	// 300 mF system never starts).
	NightDuty1mF, NightDuty10mF float64
	NightStarted300mF           bool
}

// RunBackground computes the §2.1 analysis.
func RunBackground(opt Options) (Background, error) {
	var bg Background
	ped := trace.Fig1Pedestrian(seed(opt))
	night := trace.Night(seed(opt))
	bg.EnergyAbove10mW = ped.EnergyFractionAbove(10e-3)
	bg.TimeBelow3mW = ped.TimeFractionBelow(3e-3)

	day, err := runSpec(backgroundSpec(ped, 1e-3, 300e-3), opt)
	if err != nil {
		return bg, err
	}
	nights, err := runSpec(backgroundSpec(night, 1e-3, 10e-3, 300e-3), opt)
	if err != nil {
		return bg, err
	}

	small, large := day[0], day[1]
	bg.LatencySmall, bg.LatencyLarge = small.Latency, large.Latency
	bg.CycleSmall, bg.CycleLarge = small.MeanCycle, large.MeanCycle
	bg.DutySmall = small.OnTime / ped.Duration()
	bg.DutyLarge = large.OnTime / ped.Duration()
	bg.NightDuty1mF = nights[0].OnTime / night.Duration()
	bg.NightDuty10mF = nights[1].OnTime / night.Duration()
	bg.NightStarted300mF = nights[2].Latency >= 0
	return bg, nil
}

// Table renders the background analysis against the paper's claims.
func (bg Background) Table() *Table {
	t := &Table{
		Title:  "§2.1 background analysis: static buffer behaviour on the pedestrian solar trace",
		Header: []string{"Quantity", "Reproduced", "Paper"},
	}
	t.AddRow("charge-time ratio (large/small)", fmt.Sprintf("%.1fx", bg.LatencyLarge/bg.LatencySmall), ">8x")
	t.AddRow("mean power cycle, 1 mF", fmt.Sprintf("%.0f s", bg.CycleSmall), "10 s")
	t.AddRow("mean power cycle, 300 mF", fmt.Sprintf("%.0f s", bg.CycleLarge), "880 s")
	t.AddRow("duty cycle, 1 mF", fmt.Sprintf("%.0f%%", bg.DutySmall*100), "27%")
	t.AddRow("duty cycle, 300 mF", fmt.Sprintf("%.0f%%", bg.DutyLarge*100), "49%")
	t.AddRow("energy arriving above 10 mW", fmt.Sprintf("%.0f%%", bg.EnergyAbove10mW*100), "82%")
	t.AddRow("time spent below 3 mW", fmt.Sprintf("%.0f%%", bg.TimeBelow3mW*100), "77%")
	t.AddRow("night duty cycle, 1 mF", fmt.Sprintf("%.1f%%", bg.NightDuty1mF*100), "5.7%")
	t.AddRow("night duty cycle, 10 mF", fmt.Sprintf("%.1f%%", bg.NightDuty10mF*100), "3.3%")
	started := "never starts"
	if bg.NightStarted300mF {
		started = "starts (!)"
	}
	t.AddRow("night behaviour, 300 mF", started, "never starts")
	return t
}

// Figure6 reproduces the paper's Figure 6: buffer voltage and on-time for
// the SC benchmark under the RF Mobile trace, for the 770 µF and 10 mF
// statics, Morphy, and REACT.
func Figure6(opt Options) (map[string][]sim.Sample, error) {
	buffers := []string{"770 µF", "10 mF", "Morphy", "REACT"}
	sampler := obs.NewSampler(0.5, opt.Probe)
	opt.Probe = sampler
	_, err := runSpec(&scenario.Spec{
		Name:     "figure-6",
		Trace:    scenario.TraceSpec{Loaded: trace.RFMobile(seed(opt))},
		Workload: scenario.WorkloadSpec{Bench: "SC"},
		Buffers:  scenario.Presets(buffers...),
	}, opt)
	if err != nil {
		return nil, err
	}
	out := make(map[string][]sim.Sample, len(buffers))
	for i, buf := range buffers {
		out[buf] = sampler.Series(i)
	}
	return out, nil
}

// WriteSeriesCSV writes recorded samples as CSV with one series per column
// set: time, voltage, on, capacitance, power.
func WriteSeriesCSV(w io.Writer, label string, samples []sim.Sample) error {
	if _, err := fmt.Fprintf(w, "# %s\ntime_s,voltage_v,on,capacitance_f,power_w\n", label); err != nil {
		return err
	}
	for _, s := range samples {
		on := "0"
		if s.On {
			on = "1"
		}
		_, err := fmt.Fprintf(w, "%s,%s,%s,%s,%s\n",
			strconv.FormatFloat(s.T, 'g', -1, 64),
			strconv.FormatFloat(s.V, 'g', 6, 64),
			on,
			strconv.FormatFloat(s.C, 'g', 6, 64),
			strconv.FormatFloat(s.P, 'g', 6, 64))
		if err != nil {
			return err
		}
	}
	return nil
}

// Overhead reproduces the §5.1 characterization: REACT's software polling
// penalty on compute-bound work and its hardware power draw.
type Overhead struct {
	// SoftwarePenalty is the relative DE-throughput loss from the 10 Hz
	// poll (paper: 1.8 %).
	SoftwarePenalty float64
	// HardwareDrawW is the management power measured while running with
	// every bank engaged (paper: ≈68 µW total, ≈14 µW/bank).
	HardwareDrawW float64
	// PerBankW is HardwareDrawW divided by the bank count.
	PerBankW float64
}

// RunOverhead measures the overheads on steady power, the way §5.1 does
// (DE benchmark, constant supply, five minutes).
func RunOverhead(opt Options) (Overhead, error) {
	noPollREACT := func() buffer.Buffer {
		cfg := core.DefaultConfig()
		cfg.SoftwareOverhead = 0
		return core.New(cfg)
	}
	res, err := runSpec(&scenario.Spec{
		Name:     "overhead",
		Trace:    scenario.TraceSpec{Loaded: trace.Steady("steady 10 mW", 10e-3, 300)},
		Workload: scenario.WorkloadSpec{Bench: "DE"},
		Buffers:  []scenario.BufferSpec{{Preset: "REACT"}, {Label: "REACT, no poll", New: noPollREACT}},
	}, opt)
	if err != nil {
		return Overhead{}, err
	}
	withPoll, noPoll := res[0], res[1]

	var o Overhead
	if n := noPoll.Metrics["blocks"]; n > 0 {
		o.SoftwarePenalty = 1 - withPoll.Metrics["blocks"]/n
	}
	if withPoll.OnTime > 0 {
		o.HardwareDrawW = withPoll.Ledger.Overhead / withPoll.OnTime
	}
	o.PerBankW = o.HardwareDrawW / float64(len(core.DefaultConfig().Banks))
	return o, nil
}

// Table renders the overhead characterization against the paper's §5.1
// measurements.
func (o Overhead) Table() *Table {
	t := &Table{
		Title:  "§5.1 overhead characterization (DE benchmark, steady power)",
		Header: []string{"Quantity", "Reproduced", "Paper"},
	}
	t.AddRow("software polling penalty", fmt.Sprintf("%.1f%%", o.SoftwarePenalty*100), "1.8%")
	t.AddRow("hardware power draw", fmt.Sprintf("%.0f µW", o.HardwareDrawW*1e6), "68 µW")
	t.AddRow("per-bank draw", fmt.Sprintf("%.0f µW", o.PerBankW*1e6), "~14 µW")
	return t
}
