package scenario

import (
	"fmt"

	"react/internal/harvest"
	"react/internal/mcu"
	"react/internal/sim"
	"react/internal/trace"
)

// BatchItem names one cell — buffer index Buffer of Spec — for lockstep
// execution alongside other cells that share its (trace, seed, timestep)
// batch key.
type BatchItem struct {
	Spec   *Spec
	Buffer int
}

// dt resolves the effective integration timestep for a spec, including the
// engine's 1 ms default, so batch compatibility is judged on the value the
// engine will actually step with.
func (o RunOptions) dt(s *Spec) float64 {
	dt := o.DT
	if dt == 0 {
		dt = s.DT
	}
	if dt <= 0 {
		dt = 1e-3
	}
	return dt
}

// RunBatch materializes and simulates the given cells in lockstep over one
// shared trace pass (sim.RunBatch): the trace is built once and sampled
// once per tick for the whole batch. All items must agree on the batch
// key — the same TraceSpec, effective seed and effective timestep; the
// schedulers above (Spec.Run, the grid driver, reactd's cell fan-out) only
// group cells that do. Everything else (converter, device, workload,
// buffer, tail cap) is per-cell and may differ across specs.
//
// Results are index-parallel to items and bit-identical to running every
// cell alone through Cell: the trace content is deterministic in the seed,
// and the lockstep executor preserves the reference loop's arithmetic
// exactly. st, when non-nil, accumulates the executor's tick accounting.
func RunBatch(items []BatchItem, opt RunOptions, st *sim.Stats) ([]sim.Result, error) {
	if len(items) == 0 {
		return nil, nil
	}
	for _, it := range items {
		if it.Spec == nil {
			return nil, fmt.Errorf("scenario batch: nil spec")
		}
	}
	s0 := items[0].Spec
	if err := opt.Validate(); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s0.Name, err)
	}
	seed := opt.seed(s0)
	dt := opt.dt(s0)
	for _, it := range items {
		s := it.Spec
		if it.Buffer < 0 || it.Buffer >= len(s.Buffers) {
			return nil, fmt.Errorf("scenario %s: buffer index %d out of range", s.Name, it.Buffer)
		}
		if sd := opt.seed(s); sd != seed {
			return nil, fmt.Errorf("scenario %s: batch mixes seeds %d and %d", s.Name, seed, sd)
		}
		//lint:reactlint-ignore dtarith the batch key is exact identity: nearly-equal timesteps must not share a lockstep pass
		if d := opt.dt(s); d != dt {
			return nil, fmt.Errorf("scenario %s: batch mixes timesteps %g and %g", s.Name, dt, d)
		}
		if s.Trace != s0.Trace {
			return nil, fmt.Errorf("scenario %s: batch mixes trace specs (with scenario %s)", s.Name, s0.Name)
		}
	}

	tr, err := s0.Trace.Build(seed)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s0.Name, err)
	}
	cfgs := make([]sim.Config, len(items))
	for i := range items {
		if cfgs[i], err = buildCellConfig(items[i], tr, seed, dt, opt.Probe); err != nil {
			return nil, err
		}
	}
	res, err := sim.RunBatch(cfgs, st)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s0.Name, err)
	}
	return res, nil
}

// buildCellConfig materializes one cell of a batch — converter, device
// profile, workload, buffer, and checkpoint scheme — wired to the shared
// trace. Errors carry the scenario/buffer context.
func buildCellConfig(it BatchItem, tr *trace.Trace, seed uint64, dt float64, probe sim.Probe) (sim.Config, error) {
	s := it.Spec
	fail := func(err error) (sim.Config, error) {
		return sim.Config{}, fmt.Errorf("scenario %s: %s: %w", s.Name, s.Buffers[it.Buffer].DisplayName(), err)
	}
	conv, err := harvest.ByName(s.Converter)
	if err != nil {
		return fail(err)
	}
	prof, err := s.Device.Build()
	if err != nil {
		return fail(err)
	}
	wl, err := s.Workload.Build(tr, seed, prof)
	if err != nil {
		return fail(err)
	}
	buf, err := s.Buffers[it.Buffer].Build()
	if err != nil {
		return fail(err)
	}
	dev := mcu.NewDevice(prof, wl)
	if dev.Scheme, err = s.Device.BuildScheme(); err != nil {
		return fail(err)
	}
	return sim.Config{
		DT:        dt,
		Frontend:  harvest.NewFrontend(tr, conv),
		Buffer:    buf,
		Device:    dev,
		TailCap:   s.TailCap,
		Probe:     probe,
		ProbeCell: it.Buffer,
	}, nil
}
