package main

import (
	"bytes"
	"runtime/pprof"
	"testing"
	"time"

	"react/internal/circuit"
)

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"react/internal/circuit.(*Capacitor).Leak":              "circuit",
		"react/internal/sim.RunBatch":                           "sim",
		"react/internal/service.(*Server).startBatch.func1":     "service",
		"react/internal/rng.(*Source).Uint64":                   "other",
		"runtime.mallocgc":                                      "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":          "runtime",
		"runtime/internal/syscall.Syscall6":                     "runtime",
		"net/http.(*conn).serve":                                "net_http",
		"net/http/internal.(*chunkedReader).Read":               "net_http",
		"encoding/json.(*decodeState).object":                   "encoding_json",
		"encoding/json/internal.x":                              "other",
		"syscall.Syscall":                                       "syscall",
		"internal/runtime/syscall.Syscall6":                     "syscall",
		"internal/poll.(*FD).Read":                              "syscall",
		"net.(*conn).Write":                                     "syscall",
		"aeshashbody":                                           "runtime",
		"fmt.(*pp).doPrintf":                                    "other",
		"main.runGrid.func1":                                    "other",
		"slices.SortFunc[go.shape.[]react/internal/sim.Result]": "other",
		"react/internal/obs.(*Histogram).Observe":               "obs",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestCPUSharesAttributesARealProfile profiles a loop that spends its time
// in the circuit package and checks the decoder charges it there.
func TestCPUSharesAttributesARealProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("profiles for a second")
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	c := &circuit.Capacitor{C: 1e-3, LeakI: 1e-6, VRated: 5}
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		for i := 0; i < 10000; i++ {
			c.AddCharge(1e-6)
			c.Leak(1e-3)
		}
	}
	pprof.StopCPUProfile()
	shares, total, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("profile holds no CPU time")
	}
	var sum float64
	for _, m := range modules {
		if _, ok := shares[m]; !ok {
			t.Errorf("module %q missing from the shares", m)
		}
		sum += shares[m]
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	// Outside the runtime — where the race detector's instrumentation of
	// every memory access lands — the loop is circuit code.
	if shares["circuit"] < 0.5*(1-shares["runtime"]) {
		t.Errorf("circuit share %.2f of a circuit-bound loop, want most of its non-runtime time (%v)", shares["circuit"], shares)
	}
}

func TestCPUSharesRejectsGarbage(t *testing.T) {
	if _, _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage decoded without error")
	}
}
