package circuit

import "testing"

// The circuit benchmarks time one call of each per-tick operation on
// paper-sized parts: REACT's 770 µF last-level buffer and a four-member
// chain of Morphy's 2 mF capacitors, each reset to 3 V before every call so
// the node neither fills nor drains across iterations. A tick's energy at
// 1 ms and a few mW is a few µJ.

var sink float64

const (
	benchV  = 3.0
	benchDE = 5e-6
	benchDt = 1e-3
)

func benchCap() *Capacitor {
	return &Capacitor{C: 770e-6, VMax: 3.6, LeakI: 28e-6 * 0.05 * 3.5, VRated: 6.3}
}

func benchChain() *Chain {
	caps := make([]*Capacitor, 4)
	for i := range caps {
		caps[i] = &Capacitor{C: 2e-3, LeakI: 25.2e-6 * 0.05, VRated: 6.3}
	}
	return NewChain(caps...)
}

// resetChain puts every member at benchV/len(Caps), the chain at benchV.
func resetChain(ch *Chain) {
	for _, c := range ch.Caps {
		c.SetVoltage(benchV / float64(len(ch.Caps)))
	}
}

func BenchmarkStore(b *testing.B) {
	b.Run("Capacitor", func(b *testing.B) {
		c := benchCap()
		for b.Loop() {
			c.SetVoltage(benchV)
			sink = c.Store(benchDE, 0)
		}
	})
	b.Run("Chain", func(b *testing.B) {
		ch := benchChain()
		for b.Loop() {
			resetChain(ch)
			sink = ch.Store(benchV, benchDE, 0)
		}
	})
}

func BenchmarkDraw(b *testing.B) {
	b.Run("Capacitor", func(b *testing.B) {
		c := benchCap()
		for b.Loop() {
			c.SetVoltage(benchV)
			sink = c.Draw(benchDE)
		}
	})
	b.Run("Chain", func(b *testing.B) {
		ch := benchChain()
		for b.Loop() {
			resetChain(ch)
			sink = ch.Draw(benchV, benchDE)
		}
	})
}

// BenchmarkLeak's Chain case leaks member by member, as Morphy's Tick
// does: a chain has no terminal leakage path of its own.
func BenchmarkLeak(b *testing.B) {
	b.Run("Capacitor", func(b *testing.B) {
		c := benchCap()
		for b.Loop() {
			c.SetVoltage(benchV)
			sink = c.Leak(benchDt)
		}
	})
	b.Run("Chain", func(b *testing.B) {
		ch := benchChain()
		for b.Loop() {
			resetChain(ch)
			for _, c := range ch.Caps {
				sink += c.Leak(benchDt)
			}
		}
	})
}

// BenchmarkEqualizeParallel times Morphy's per-tick relaxation of its
// {3, 3, 2} partition on the chain voltages it holds: Equalized is the
// steady state the sub-nanovolt early-out serves, Imbalanced a freshly
// reshuffled network that must redistribute charge (its reset derives the
// voltages, as Morphy's rebuild does).
func BenchmarkEqualizeParallel(b *testing.B) {
	chains := func() []*Chain {
		caps := make([]*Capacitor, 8)
		for i := range caps {
			caps[i] = &Capacitor{C: 2e-3}
		}
		return []*Chain{NewChain(caps[0:3]...), NewChain(caps[3:6]...), NewChain(caps[6:8]...)}
	}
	b.Run("Equalized", func(b *testing.B) {
		nodes := chains()
		for _, n := range nodes {
			resetChain(n)
		}
		volts := make([]float64, len(nodes))
		for i, n := range nodes {
			volts[i] = n.Voltage()
		}
		for b.Loop() {
			sink = EqualizeParallel(nodes, volts)
		}
	})
	b.Run("Imbalanced", func(b *testing.B) {
		nodes := chains()
		volts := make([]float64, len(nodes))
		for b.Loop() {
			for i, n := range nodes {
				for _, c := range n.Caps {
					c.SetVoltage(1 + float64(i)*0.5)
				}
				volts[i] = n.Voltage()
			}
			sink = EqualizeParallel(nodes, volts)
		}
	})
}
