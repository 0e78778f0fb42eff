package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// layerUnits is every per-layer metric with its unit. Each traced run
// reports all of them; a layer a workload never reaches reads 0. Which
// end-to-end metric each should move, on which workload, is recorded in
// README.md beside this file.
var layerUnits = map[string]string{
	"sim.ns_per_cell_tick":        "ns",
	"sim.cell_ticks":              "count",
	"sim.cells_per_pass":          "count",
	"sim.ff_share":                "share",
	"scenario.batch_ms_p50":       "ms",
	"scenario.batch_ms_max":       "ms",
	"runner.busy_share":           "share",
	"trace.build_ms":              "ms",
	"client.submit_ms_p50":        "ms",
	"client.polls_per_op":         "count",
	"client.error_rate":           "share",
	"service.run_hit_share":       "share",
	"service.view_hit_share":      "share",
	"service.cell_hit_share":      "share",
	"service.batch_cells_mean":    "count",
	"service.queue_wait_ms_mean":  "ms",
	"service.cell_sim_ms_mean":    "ms",
	"service.coalesced":           "count",
	"explore.op_ms_mean":          "ms",
	"store.disk_hit_share":        "share",
	"store.get_ms_mean":           "ms",
	"store.put_ms_mean":           "ms",
	"store.open_s":                "s",
	"obs.scrape_ms":               "ms",
	"obs.dropped_spans":           "count",
	"cluster.peer_cell_share":     "share",
	"cluster.peer_rtt_ms_mean":    "ms",
	"cluster.peer_wait_excess_ms": "ms",
	"cluster.peer_fallbacks":      "count",
	"tracing_overhead":            "share",
}

// physics are the modules that step cells; sim.ns_per_cell_tick charges
// their CPU time to the cell-ticks stepped.
var physics = []string{"circuit", "core", "buffer", "morphy", "capybara", "ckpt", "mcu", "workload", "harvest", "sim"}

// layerDefaults returns every per-layer metric at 0.
func layerDefaults() map[string]metric {
	l := map[string]metric{}
	for name, unit := range layerUnits {
		l[name] = metric{Unit: unit}
	}
	for _, m := range modules {
		l["cpu_share."+m] = metric{Unit: "share"}
	}
	return l
}

// set stores a per-layer value under its registered unit.
func set(l map[string]metric, name string, v float64) {
	m, ok := l[name]
	if !ok {
		panic("perfbench: unregistered per-layer metric " + name)
	}
	m.Value = v
	l[name] = m
}

// profileLayers fills the CPU shares from a CPU profile, and the physics
// CPU time per cell-tick stepped.
func profileLayers(l map[string]metric, prof []byte, ticks uint64) error {
	shares, totalNs, err := cpuShares(prof)
	if err != nil {
		return err
	}
	var phys float64
	for m, s := range shares {
		l["cpu_share."+m] = metric{Value: s, Unit: "share"}
	}
	for _, m := range physics {
		phys += shares[m]
	}
	set(l, "sim.ns_per_cell_tick", ratio(phys*totalNs, float64(ticks)))
	return nil
}

// writeTrace writes a traced run's span log and CPU profile (readable with
// go tool pprof) beside the other runs' logs.
func writeTrace(e *env, tr *tracer, prof []byte) error {
	if err := os.MkdirAll(e.traces, 0o755); err != nil {
		return err
	}
	base := filepath.Join(e.traces, fmt.Sprintf("%s-seed%d", e.name, e.seed))
	if err := tr.write(base + ".json"); err != nil {
		return err
	}
	if err := os.WriteFile(base+".pprof", prof, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace %s.json %s.pprof\n", base, base)
	return nil
}
