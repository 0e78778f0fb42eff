// Command perfbench is the repository's benchmark. It drives the REACT
// simulator and the reactd service from outside, through their public Go
// entry points, on one seeded workload per invocation:
//
//   - paper-grid: the 100 cells of Figure 7 (20 paper scenarios, each one
//     lockstep scenario.RunBatch), spread over nproc lanes;
//   - reactd-miss: a closed loop of nproc clients against a 2-node
//     loopback cluster. Most requests carry seeds never seen before, so
//     their cells are simulated, written through and sharded; a fixed
//     share of each block repeats earlier runs, so the run view index, the
//     memory cell tier and the disk tier each serve some.
//
// Every run checks the program's outputs (see check.go) and ends with one
// JSON line: the end-to-end metrics with -trace 0, or the per-layer
// metrics of a separate traced pass with -trace 1. Run it through
// run.sh, which builds it:
//
//	bash perfbench/run.sh --workload reactd-miss --seed 3 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure with its unit; n is the sample count behind
// a latency percentile (0 when the figure is not a percentile).
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
}

// report is what one workload measured: the bounded end-to-end metrics of
// BENCHMARK.json, workload-specific figures printed for readers only, and
// (traced runs) the per-layer metrics.
type report struct {
	attempted, failed int
	e2e               map[string]metric
	extra             map[string]metric
	layer             map[string]metric
}

func newReport() *report {
	return &report{e2e: map[string]metric{}, extra: map[string]metric{}, layer: map[string]metric{}}
}

// errCheck marks a failed correctness check: the run fails, it does not
// become a metric.
type errCheck struct{ msg string }

func (e *errCheck) Error() string { return "check failed: " + e.msg }

func checkf(format string, args ...any) error {
	return &errCheck{fmt.Sprintf(format, args...)}
}

// env is one invocation's settings.
type env struct {
	root    string // repository root (goldens are read from here)
	work    string // this run's scratch directory, removed at exit
	traces  string // where the span log of a traced run is written
	name    string
	seed    uint64
	seconds float64
	trace   bool
	nproc   int
}

var workloads = map[string]func(*env) (*report, error){
	"paper-grid":  runPaperGrid,
	"reactd-miss": runReactdMiss,
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: paper-grid or reactd-miss")
		seed    = flag.Uint64("seed", 1, "workload seed (≥ 1); the same seed generates the same inputs")
		seconds = flag.Int("seconds", 20, "how long one run measures")
		traceOn = flag.Int("trace", 0, "1 runs the separate traced pass and prints the per-layer metrics")
		root    = flag.String("root", ".", "repository root")
		work    = flag.String("work", ".bench_build/work", "scratch directory for stores and span logs")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seed == 0 || *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %d, trace %d)\n", *name, *seed, *seconds, *traceOn)
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	e := &env{
		root: *root, name: *name, seed: *seed, seconds: float64(*seconds),
		trace: *traceOn == 1, nproc: nproc,
		work:   filepath.Join(*work, fmt.Sprintf("%s-%d", *name, os.Getpid())),
		traces: filepath.Join(*work, "traces"),
	}
	if err := os.MkdirAll(e.work, 0o755); err != nil {
		fail(2, err)
	}
	rep, err := run(e)
	if rmErr := os.RemoveAll(e.work); rmErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", rmErr)
	}
	var ce *errCheck
	if errors.As(err, &ce) {
		printResult(false, rep, nil)
		fail(1, err)
	}
	if err != nil {
		fail(2, err)
	}
	printLines(rep)
	if e.trace {
		printResult(true, rep, rep.layer)
	} else {
		printResult(true, rep, rep.e2e)
	}
}

func fail(code int, err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(code)
}

// stamp prints the conditions a result was measured under. Results taken
// with a different nproc or GOMAXPROCS are not comparable.
func stamp(e *env, clients int, workers []int) {
	s, _ := json.Marshal(map[string]any{
		"workload": e.name, "seed": e.seed, "seconds": e.seconds, "trace": e.trace,
		"nproc": e.nproc, "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"cpu": cpuModel(), "clients": clients, "workers_per_node": workers,
	})
	fmt.Printf("stamp %s\n", s)
}

// cpuModel reads the processor name from /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printLines prints every measured figure for a reader, one per line,
// with its unit and, for a percentile, its sample count.
func printLines(r *report) {
	for _, group := range []struct {
		kind string
		m    map[string]metric
	}{{"e2e", r.e2e}, {"extra", r.extra}, {"layer", r.layer}} {
		names := make([]string, 0, len(group.m))
		for n := range group.m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			m := group.m[n]
			if m.n > 0 {
				fmt.Printf("%-5s %-28s %14.6g %-7s n=%d\n", group.kind, n, m.Value, m.Unit, m.n)
			} else {
				fmt.Printf("%-5s %-28s %14.6g %s\n", group.kind, n, m.Value, m.Unit)
			}
		}
	}
}

// printResult prints the final JSON line.
func printResult(correct bool, r *report, ms map[string]metric) {
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: correct, Metrics: map[string]metric{}}
	if r != nil {
		out.Attempted, out.Failed = r.attempted, r.failed
	}
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = 0
		}
		out.Metrics[k] = m
	}
	data, err := json.Marshal(out)
	if err != nil {
		fail(2, err)
	}
	fmt.Println(string(data))
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeak samples the process's resident set size every 10 ms until
// stopped and keeps the largest sample: the host memory the workload
// holds, with the Go heap, stacks and runtime. Unlike the heap in use it
// does not saw-tooth with each collection, so it repeats run to run.
type rssPeak struct {
	stop chan struct{}
	done chan float64
}

func startRSSPeak() *rssPeak {
	p := &rssPeak{stop: make(chan struct{}), done: make(chan float64, 1)}
	go func() {
		var peak float64
		page := float64(os.Getpagesize())
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			// statm: total and resident pages, then fields we ignore.
			if b, err := os.ReadFile("/proc/self/statm"); err == nil {
				var size, resident float64
				if _, err := fmt.Sscan(string(b), &size, &resident); err == nil {
					peak = max(peak, resident*page/1e6)
				}
			}
			select {
			case <-p.stop:
				p.done <- peak
				return
			case <-tick.C:
			}
		}
	}()
	return p
}

// mb stops the sampler and returns the peak in MB; an error means the
// platform offers no /proc/self/statm.
func (p *rssPeak) mb() (float64, error) {
	close(p.stop)
	if v := <-p.done; v > 0 {
		return v, nil
	}
	return 0, errors.New("no resident-set samples: /proc/self/statm unreadable")
}
