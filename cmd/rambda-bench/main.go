// rambda-bench is the performance-regression harness: it times every
// paper figure end to end, runs the sim engine's microbenchmark
// kernels, and writes the results as JSON (BENCH_<pr>.json in the repo
// root records the trajectory across PRs).
//
// Usage:
//
//	go run ./cmd/rambda-bench -quick                 # figures + micro, write BENCH_8.json
//	go run ./cmd/rambda-bench -skip-figures          # microbenchmarks only
//	go run ./cmd/rambda-bench -quick -baseline BENCH_7.json
//	go run ./cmd/rambda-bench -quick -sim-parallel 4 # partitioned engine, 4 goroutines per sim
//
// With -baseline, the run fails (exit 1) when anything regresses:
//   - a microbenchmark's machine-normalized score (ns/op divided by the
//     RNGUint64 calibration kernel's ns/op, so a baseline committed from
//     one machine remains meaningful on CI hardware of a different
//     speed) grows by more than -max-regress (default 25%);
//   - a microbenchmark allocates more per op than the baseline (with a
//     one-alloc slack) — steady-state-zero kernels must stay at zero;
//   - a figure's heap allocation count grows by more than -max-regress
//     (figures are deterministic, so alloc counts are too; only checked
//     when both runs used the same -quick scale).
//
// JSON schema (BENCH_*.json):
//
//	{
//	  "schema": "rambda-bench/1",
//	  "quick": bool, "parallel": int, "go": string,
//	  "calibration_ns_per_op": float,        // RNGUint64 ns/op
//	  "figures": {"<id>": {
//	      "wall_ns":        int,   // figure jobs + table render
//	      "allocs":         int,   // heap allocations during the figure
//	      "peak_rss_bytes": int    // per-figure VmHWM (high-water mark reset before each figure; cumulative where /proc is unavailable)
//	  }},
//	  "micro": {"<kernel>": {
//	      "ns_per_op": float, "allocs_per_op": int, "bytes_per_op": int,
//	      "normalized": float      // ns_per_op / calibration_ns_per_op
//	  }}
//	}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"rambda/internal/chainrep"
	"rambda/internal/experiments"
	"rambda/internal/lsm"
	"rambda/internal/rnic"
	"rambda/internal/runner"
	"rambda/internal/scaleout"
	"rambda/internal/sim"
)

type figureResult struct {
	WallNS       int64 `json:"wall_ns"`
	Allocs       int64 `json:"allocs"`
	PeakRSSBytes int64 `json:"peak_rss_bytes"`
}

type microResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Normalized  float64 `json:"normalized"`
	// Filled only when -seed points at a BENCH file measured on the
	// pre-optimization engine: the seed's raw ns/op and the speedup of
	// this run over it (same-machine comparison, not normalized).
	SeedNsPerOp   float64 `json:"seed_ns_per_op,omitempty"`
	SpeedupVsSeed float64 `json:"speedup_vs_seed,omitempty"`
}

type report struct {
	Schema        string                  `json:"schema"`
	Quick         bool                    `json:"quick"`
	Parallel      int                     `json:"parallel"`
	SimParallel   int                     `json:"sim_parallel,omitempty"`
	Go            string                  `json:"go"`
	CalibrationNs float64                 `json:"calibration_ns_per_op"`
	Figures       map[string]figureResult `json:"figures"`
	Micro         map[string]microResult  `json:"micro"`
}

// microKernels names each sim kernel timed by the harness. RNGUint64 is
// also the calibration reference and is timed first, separately.
var microKernels = []struct {
	name string
	fn   func(n int)
}{
	{"ResourceAcquireGapFree", func(n int) { sim.BenchAcquireGapFree(n) }},
	{"ResourceAcquireGapHeavy", func(n int) { sim.BenchAcquireGapHeavy(n) }},
	{"ResourceAcquireGapSaturated", func(n int) { sim.BenchAcquireGapSaturated(n) }},
	{"ResourceAcquireBehindFrontier", func(n int) { sim.BenchAcquireBehindFrontier(n) }},
	{"ClosedLoopRun", func(n int) { sim.BenchClosedLoop(n) }},
	{"HistogramRecord", func(n int) { sim.BenchHistogramRecord(n) }},
	{"HistogramPercentile", func(n int) { sim.BenchHistogramPercentile(n) }},
	{"ZipfNext", func(n int) { sim.BenchZipf(n) }},
	{"ParallelEpochBarrier", func(n int) { sim.BenchParallelEpochBarrier(n) }},
	{"RCWriteHotPath", func(n int) { rnic.BenchWriteHotPath(n) }},
	{"RCRetransmitStorm", func(n int) { rnic.BenchRetransmitStorm(n) }},
	{"ChainFailoverReplay", func(n int) { chainrep.BenchFailoverReplay(n) }},
	{"ShardRouteHotPath", func(n int) { scaleout.BenchShardRouteHotPath(n) }},
	{"MigrationFailoverReplay", func(n int) { scaleout.BenchMigrationFailoverReplay(n) }},
	{"LSMReadHotPath", func(n int) { lsm.BenchReadHotPath(n) }},
	{"ScanMerge", func(n int) { lsm.BenchScanMerge(n) }},
}

func main() {
	quick := flag.Bool("quick", false, "run figures at quick scale (mirrors rambda-figures -quick)")
	parallel := flag.Int("parallel", runtime.NumCPU(), "worker goroutines for figure sweep points")
	simParallel := flag.Int("sim-parallel", 1, "goroutines per simulation for the partitioned engine and its pipelined streams")
	out := flag.String("out", "BENCH_8.json", "output JSON path")
	only := flag.String("only", "", "time a single figure id (e.g. fig7)")
	skipFigures := flag.Bool("skip-figures", false, "skip figure timings, run only the sim microbenchmarks")
	baselinePath := flag.String("baseline", "", "baseline BENCH_*.json to compare microbenchmarks against")
	seedPath := flag.String("seed", "", "BENCH_*.json measured on the pre-optimization engine; embeds per-kernel speedups in the output")
	maxRegress := flag.Float64("max-regress", 0.25, "fail when a microbenchmark's normalized score regresses by more than this fraction")
	flag.Parse()

	runner.SetDefault(*parallel)
	sim.SetParallel(*simParallel)
	rep := report{
		Schema:      "rambda-bench/1",
		Quick:       *quick,
		Parallel:    *parallel,
		SimParallel: *simParallel,
		Go:          runtime.Version(),
		Figures:     map[string]figureResult{},
		Micro:       map[string]microResult{},
	}

	// Calibration first, on a quiet process.
	calib := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		sim.BenchRNG(b.N)
	})
	rep.CalibrationNs = nsPerOp(calib)
	fmt.Fprintf(os.Stderr, "calibration RNGUint64: %.2f ns/op\n", rep.CalibrationNs)
	rep.Micro["RNGUint64"] = microResult{
		NsPerOp:     nsPerOp(calib),
		AllocsPerOp: calib.AllocsPerOp(),
		BytesPerOp:  calib.AllocedBytesPerOp(),
		Normalized:  1,
	}

	for _, k := range microKernels {
		k := k
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			k.fn(b.N)
		})
		m := microResult{
			NsPerOp:     nsPerOp(r),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		m.Normalized = m.NsPerOp / rep.CalibrationNs
		rep.Micro[k.name] = m
		fmt.Fprintf(os.Stderr, "micro %-28s %12.2f ns/op  %6d B/op  %4d allocs/op\n",
			k.name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}

	if !*skipFigures {
		for _, s := range experiments.StandardSpecs(*quick) {
			if *only != "" && !strings.EqualFold(*only, s.ID) {
				continue
			}
			resetPeakRSS()
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			start := time.Now()
			if err := runner.Run(*parallel, s.Jobs); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			_ = s.Table().String()
			wall := time.Since(start)
			runtime.ReadMemStats(&ms1)
			rep.Figures[s.ID] = figureResult{
				WallNS:       wall.Nanoseconds(),
				Allocs:       int64(ms1.Mallocs - ms0.Mallocs),
				PeakRSSBytes: peakRSSBytes(),
			}
			fmt.Fprintf(os.Stderr, "figure %-12s %10s  %12d allocs  peak-rss %d MiB\n",
				s.ID, wall.Round(time.Millisecond), ms1.Mallocs-ms0.Mallocs, peakRSSBytes()>>20)
		}
	}

	if *seedPath != "" {
		embedSeed(&rep, *seedPath)
	}

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if *baselinePath != "" {
		if failed := compareBaseline(&rep, *baselinePath, *maxRegress); failed {
			os.Exit(1)
		}
	}
}

// nsPerOp keeps fractional precision (BenchmarkResult.NsPerOp truncates
// to an integer, useless for sub-100ns kernels).
func nsPerOp(r testing.BenchmarkResult) float64 {
	if r.N <= 0 {
		return 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N)
}

// compareBaseline checks every microbenchmark present in both runs
// (normalized time and allocs/op) plus per-figure alloc counts, and
// reports regressions beyond maxRegress.
func compareBaseline(rep *report, path string, maxRegress float64) (failed bool) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "baseline: %v\n", err)
		return true
	}
	var base report
	if err := json.Unmarshal(raw, &base); err != nil {
		fmt.Fprintf(os.Stderr, "baseline %s: %v\n", path, err)
		return true
	}
	if base.CalibrationNs <= 0 {
		fmt.Fprintf(os.Stderr, "baseline %s has no calibration; skipping regression check\n", path)
		return false
	}
	// Kernels whose wall time is dominated by goroutine wakeups rather
	// than single-threaded compute: the RNGUint64 calibration does not
	// normalize scheduler latency across machines, so their times are
	// recorded but not gated. Alloc counts are still checked.
	schedulerBound := map[string]bool{"ParallelEpochBarrier": true}
	for name, cur := range rep.Micro {
		b, ok := base.Micro[name]
		if !ok || b.Normalized <= 0 || name == "RNGUint64" {
			continue
		}
		ratio := cur.Normalized / b.Normalized
		status := "ok"
		if ratio > 1+maxRegress {
			if schedulerBound[name] {
				status = "slower (not gated: scheduler-bound)"
			} else {
				status = "REGRESSION"
				failed = true
			}
		}
		// Alloc counts are deterministic per op; one alloc of slack
		// absorbs testing.Benchmark's occasional warmup remainder.
		if cur.AllocsPerOp > b.AllocsPerOp+1 {
			status = "ALLOC REGRESSION"
			failed = true
		}
		fmt.Fprintf(os.Stderr, "compare %-28s baseline %8.2f (%d allocs)  now %8.2f (%d allocs)  ratio %.2fx  %s\n",
			name, b.Normalized, b.AllocsPerOp, cur.Normalized, cur.AllocsPerOp, ratio, status)
	}
	// Figure alloc counts are only comparable at the same sweep scale.
	// Tiny figures (a few thousand allocs) are dominated by harness and
	// engine setup, where a handful of extra allocations blows past any
	// ratio; an absolute slack keeps the gate meaningful for the large
	// sweeps without tripping on setup noise.
	const figureAllocSlack = 8192
	if rep.Quick == base.Quick {
		for id, cur := range rep.Figures {
			b, ok := base.Figures[id]
			if !ok || b.Allocs <= 0 {
				continue
			}
			ratio := float64(cur.Allocs) / float64(b.Allocs)
			status := "ok"
			if ratio > 1+maxRegress && cur.Allocs-b.Allocs > figureAllocSlack {
				status = "ALLOC REGRESSION"
				failed = true
			}
			fmt.Fprintf(os.Stderr, "compare %-28s baseline %12d allocs  now %12d allocs  ratio %.2fx  %s\n",
				id, b.Allocs, cur.Allocs, ratio, status)
		}
	}
	if failed {
		fmt.Fprintf(os.Stderr, "FAIL: regression beyond %.0f%% vs %s\n", maxRegress*100, path)
	}
	return failed
}

// embedSeed copies the pre-optimization ns/op for each kernel out of a
// seed BENCH file and records the raw same-machine speedup alongside
// this run's numbers.
func embedSeed(rep *report, path string) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "seed: %v\n", err)
		return
	}
	var seed report
	if err := json.Unmarshal(raw, &seed); err != nil {
		fmt.Fprintf(os.Stderr, "seed %s: %v\n", path, err)
		return
	}
	for name, cur := range rep.Micro {
		s, ok := seed.Micro[name]
		if !ok || s.NsPerOp <= 0 || cur.NsPerOp <= 0 {
			continue
		}
		cur.SeedNsPerOp = s.NsPerOp
		cur.SpeedupVsSeed = s.NsPerOp / cur.NsPerOp
		rep.Micro[name] = cur
		fmt.Fprintf(os.Stderr, "seed    %-28s %12.2f -> %10.2f ns/op  %8.1fx\n",
			name, s.NsPerOp, cur.NsPerOp, cur.SpeedupVsSeed)
	}
}

// resetPeakRSS makes the next peakRSSBytes reading per-figure: free
// heap is returned to the OS, then the kernel's resident high-water
// mark is cleared (/proc/self/clear_refs, value 5). Best-effort — where
// clear_refs is unavailable the readings degrade to the old cumulative
// behaviour.
func resetPeakRSS() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSBytes reads the process resident-set high-water mark (VmHWM),
// reset before each figure by resetPeakRSS so the value reflects that
// figure's working set. Returns 0 where /proc is unavailable.
func peakRSSBytes() int64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}
