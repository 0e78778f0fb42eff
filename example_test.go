package react_test

import (
	"context"

	"fmt"

	"react"
)

// The canonical use: replay a power trace into a REACT buffer powering a
// device, and read the outcome.
func ExampleRun() {
	buf := react.NewREACT(react.DefaultConfig())
	dev := react.NewDevice(react.DefaultProfile(), react.NewDataEncryption(0.6e-3))
	res, err := react.Run(react.SimConfig{
		Frontend: react.NewFrontend(react.RFCart(1), nil),
		Buffer:   buf,
		Device:   dev,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("started after %.1f s, buffer expanded to level %d of %d\n",
		res.Latency, buf.Level(), len(buf.Traits().Guarantee)-1)
	// Output: started after 3.9 s, buffer expanded to level 0 of 10
}

// Equation 2 bounds how large a bank's capacitors may be before the
// parallel→series reclamation spike crosses the overvoltage threshold.
func ExampleMaxUnitCapacitance() {
	limit := react.MaxUnitCapacitance(2, 770e-6, 1.9, 3.5)
	spike := react.VoltageAfterReclaim(2, 5e-3, 770e-6, 1.9)
	fmt.Printf("2-capacitor banks may use up to %.2f mF; a 5 mF unit spikes to %.2f V\n",
		limit*1e3, spike)
	// Output: 2-capacitor banks may use up to 8.21 mF; a 5 mF unit spikes to 3.35 V
}

// Software-directed longevity: find the capacitance level that guarantees
// enough energy for an atomic radio transmission, then wait for it.
func ExampleLevelFor() {
	guarantee := react.NewREACT(react.DefaultConfig()).Traits().Guarantee
	lvl, ok := react.LevelFor(guarantee, 5e-3) // a 5 mJ transmission
	fmt.Printf("wait for level %d (guarantees %.1f mJ, ok=%v)\n",
		lvl, guarantee[lvl]*1e3, ok)
	// Output: wait for level 3 (guarantees 6.4 mJ, ok=true)
}

// Synthetic traces are deterministic per seed and match the paper's
// Table 3 statistics.
func ExampleEvaluationTraces() {
	for _, tr := range react.EvaluationTraces(1) {
		s := tr.Stats()
		fmt.Printf("%-14s %5.0f s  %6.3f mW\n", tr.Name, s.Duration, s.Mean*1e3)
	}
	// Output:
	// RF Cart          313 s   2.120 mW
	// RF Obstructed    313 s   0.227 mW
	// RF Mobile        318 s   0.500 mW
	// Solar Campus    3609 s   5.180 mW
	// Solar Commute   6030 s   0.148 mW
}

// Parameter sweeps schedule through the experiment engine's worker pool
// and return results in point order — here, cold-start latency as a
// function of the last-level buffer size.
func ExampleSweep() {
	sizes := []float64{330e-6, 770e-6, 2e-3}
	latencies, err := react.Sweep(context.Background(), nil, sizes,
		func(_ context.Context, llbC float64) (float64, error) {
			cfg := react.DefaultConfig()
			cfg.LLB.C = llbC
			res, err := react.Run(react.SimConfig{
				Frontend: react.NewFrontend(react.RFCart(1), nil),
				Buffer:   react.NewREACT(cfg),
				Device:   react.NewDevice(react.DefaultProfile(), react.NewDataEncryption(0.6e-3)),
			})
			if err != nil {
				return 0, err
			}
			return res.Latency, nil
		})
	if err != nil {
		panic(err)
	}
	for i, c := range sizes {
		fmt.Printf("LLB %4.0f µF -> first enable after %.1f s\n", c*1e6, latencies[i])
	}
	// Output:
	// LLB  330 µF -> first enable after 2.7 s
	// LLB  770 µF -> first enable after 3.9 s
	// LLB 2000 µF -> first enable after 5.0 s
}
