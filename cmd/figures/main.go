// Command figures regenerates the paper's figures as CSV series plus the
// §2.1 background analysis.
//
//	figures -fig 1          voltage/on-time series for the 1 mF and 300 mF
//	                        static buffers on the pedestrian solar trace
//	figures -fig 6          voltage series for SC under RF Mobile across
//	                        770 µF, 10 mF, Morphy and REACT
//	figures -fig 7          normalized-performance summary (runs the grid)
//	figures -fig background §2.1 static-buffer analysis table
//
// Series go to one CSV file per run under -out (default "figures").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"react/internal/experiments"
	"react/internal/runner"
	"react/internal/sim"
)

func main() {
	var (
		fig     = flag.String("fig", "1", "which figure: 1, 6, 7, background")
		seed    = flag.Uint64("seed", 1, "trace/event seed")
		out     = flag.String("out", "figures", "output directory for CSV series")
		workers = flag.Int("workers", 0, "worker pool size for the grid (0 = GOMAXPROCS)")
	)
	flag.Parse()

	opt := experiments.Options{Seed: *seed}
	switch *fig {
	case "1":
		runs, err := experiments.Figure1(opt)
		if err != nil {
			fatal(err)
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		for _, r := range runs {
			name := filepath.Join(*out, "fig1_"+sanitize(r.Label)+".csv")
			if err := writeSeries(name, r.Label, r.Samples); err != nil {
				fatal(err)
			}
			fmt.Printf("fig1 %-8s latency %7.1f s  on %6.0f s  cycles %4d  -> %s\n",
				r.Label, r.Result.Latency, r.Result.OnTime, r.Result.Cycles, name)
		}
	case "6":
		series, err := experiments.Figure6(opt)
		if err != nil {
			fatal(err)
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			fatal(err)
		}
		names := make([]string, 0, len(series))
		for n := range series {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			file := filepath.Join(*out, "fig6_"+sanitize(n)+".csv")
			if err := writeSeries(file, n, series[n]); err != nil {
				fatal(err)
			}
			fmt.Printf("fig6 %-8s %5d samples -> %s\n", n, len(series[n]), file)
		}
	case "7":
		fmt.Fprintln(os.Stderr, "figures: running the evaluation grid...")
		r := &runner.Runner{
			Workers: *workers,
			OnProgress: func(p runner.Progress) {
				fmt.Fprintf(os.Stderr, "\rfigures: %d/%d cells", p.Done, p.Total)
				if p.Done == p.Total {
					fmt.Fprintln(os.Stderr)
				}
			},
		}
		grid, err := experiments.RunGridOn(context.Background(), r, opt)
		if err != nil {
			fatal(err)
		}
		fmt.Print(experiments.ComputeFigure7(grid).Table().String())
	case "background":
		bg, err := experiments.RunBackground(opt)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bg.Table().String())
	default:
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func writeSeries(name, label string, samples []sim.Sample) error {
	f, err := os.Create(name)
	if err != nil {
		return err
	}
	defer f.Close()
	return experiments.WriteSeriesCSV(f, label, samples)
}

func sanitize(s string) string {
	s = strings.ReplaceAll(s, " ", "_")
	s = strings.ReplaceAll(s, "µ", "u")
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "figures:", err)
	os.Exit(1)
}
