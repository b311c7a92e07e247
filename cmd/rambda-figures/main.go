// rambda-figures regenerates every table and figure of the paper's
// evaluation section on the simulated testbed.
//
// Usage:
//
//	go run ./cmd/rambda-figures              # everything, one worker per CPU
//	go run ./cmd/rambda-figures -only fig8   # one experiment
//	go run ./cmd/rambda-figures -quick       # smaller workloads
//	go run ./cmd/rambda-figures -parallel 1  # sequential (pre-harness behaviour)
//	go run ./cmd/rambda-figures -sim-parallel 4  # partitioned engine, 4 goroutines per sim
//	go run ./cmd/rambda-figures -obs-dir out     # also write out/<id>.{trace,metrics}.json
//
// Every figure enumerates its sweep as independent runner jobs; the
// CLI flattens all selected figures into a single worker pool so whole
// figures overlap with each other as well as their own points. Output
// is printed in a fixed order from slot-indexed results, so it is
// byte-identical for every -parallel value.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strings"

	"rambda/internal/experiments"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

func main() {
	only := flag.String("only", "", "run a single experiment: fig1, fig5, fig7, fig8, fig9, fig10, fig12, fig13, tab3, scalability, chaos, breakdown, scaleout, chaos-scaleout, ycsb")
	quick := flag.Bool("quick", false, "scale workloads down for a fast pass")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for sweep points (1 = sequential)")
	simParallel := flag.Int("sim-parallel", 1, "goroutines per simulation for the partitioned engine and its pipelined streams (1 = sequential; output is byte-identical for every value)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the figure runs to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after all figures) to this file")
	traceFile := flag.String("trace", "", "write a runtime execution trace to this file")
	obsDir := flag.String("obs-dir", "", "write each collecting experiment's exports into this directory as <id>.trace.json (Chrome trace_event spans) and <id>.metrics.json (metrics registries)")
	flag.Parse()

	if *obsDir != "" {
		if err := os.MkdirAll(*obsDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *traceFile != "" {
		f, err := os.Create(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := trace.Start(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer trace.Stop()
	}
	defer func() {
		if *memProfile == "" {
			return
		}
		f, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}()

	runner.SetDefault(*parallel)
	sim.SetParallel(*simParallel)

	specs := experiments.StandardSpecsObs(*quick, *obsDir)

	var selected []experiments.Spec
	for _, s := range specs {
		if *only == "" || strings.EqualFold(*only, s.ID) {
			selected = append(selected, s)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q\n", *only)
		os.Exit(2)
	}

	// One flat pool across every selected figure: points of different
	// figures run side by side, results land in per-figure slots.
	var jobs []runner.Job
	for _, s := range selected {
		jobs = append(jobs, s.Jobs...)
	}
	if err := runner.Run(*parallel, jobs); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, s := range selected {
		fmt.Println(s.Table())
	}
}
