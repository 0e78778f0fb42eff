// Packetforward: the paper's hardest workload — receive unpredictable
// radio packets (a reactivity problem) and retransmit them (a persistence
// problem) from harvested RF power.
//
// The example contrasts three strategies on the same trace and arrival
// schedule:
//
//   - a small static buffer, which catches packets but wastes its energy
//     on doomed transmissions it can never finish;
//   - a large static buffer, which transmits comfortably but sleeps
//     through the first minutes (and the packets that arrive then);
//   - REACT, whose software waits for a capacitance level that guarantees
//     the transmission energy (§3.4.1) and otherwise stays listening.
//
// It also prints the REACT level ladder so the guarantee is visible.
package main

import (
	"fmt"
	"log"

	"react"
)

func main() {
	const (
		seed             = 1
		meanInterarrival = 6.0 // seconds between packets on average
	)
	tr := react.RFCart(seed)

	// Show the level ladder: what energy each REACT capacitance level
	// guarantees, and which level a 5 mJ transmission needs.
	guarantee := react.NewREACT(react.DefaultConfig()).Traits().Guarantee
	fmt.Println("REACT capacitance levels and their energy guarantees:")
	for lvl, g := range guarantee {
		fmt.Printf("  level %2d: %6.2f mJ\n", lvl, g*1e3)
	}
	const txEnergy = 4.95e-3 * 1.4 // transmission cost with safety margin
	if lvl, ok := react.LevelFor(guarantee, txEnergy); ok {
		fmt.Printf("a %.1f mJ transmission needs level %d\n\n", txEnergy*1e3, lvl)
	}

	fmt.Printf("%-14s %8s %8s %8s %8s %10s\n", "buffer", "rx", "tx", "missed", "txFailed", "wastedTX")
	buffers := []react.Buffer{
		react.NewStatic(react.StaticConfig{Name: "770 µF static", C: 770e-6, VMax: 3.6, LeakI: 0.77e-6, VRated: 6.3}),
		react.NewStatic(react.StaticConfig{Name: "17 mF static", C: 17e-3, VMax: 3.6, LeakI: 17e-6, VRated: 6.3}),
		react.NewREACT(react.DefaultConfig()),
	}
	for _, buf := range buffers {
		prof := react.DefaultProfile()
		wl := react.NewPacketForward(prof.SleepI, seed, tr.Duration()+120, meanInterarrival)
		dev := react.NewDevice(prof, wl)
		res, err := react.Run(react.SimConfig{
			Frontend: react.NewFrontend(tr, nil),
			Buffer:   buf,
			Device:   dev,
		})
		if err != nil {
			log.Fatal(err)
		}
		m := res.Metrics
		fmt.Printf("%-14s %8.0f %8.0f %8.0f %8.0f %8.1f mJ\n",
			res.Buffer, m["rx"], m["tx"], m["missed"], m["tx_failed"],
			m["tx_failed"]*4.95)
	}
	fmt.Println("\nThe small buffer browns out mid-transmission, every time; the big")
	fmt.Println("one misses early arrivals. REACT listens early AND transmits safely.")
}
