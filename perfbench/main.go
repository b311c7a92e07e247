// Command perfbench is the repository benchmark: it builds the RAMBDA
// serving stack from the public constructors and runs the quick figure
// sweep, and reports end-to-end metrics on the host clock (what the
// simulator costs) and the virtual clock (what the modelled system
// does), or, with -trace 1, host self time per layer. See README.md.
//
//	go run . --workload kvs-get --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rambda/internal/experiments"
	"rambda/internal/sim"
)

// servingWorkloads are the closed-loop serving mixes.
var servingWorkloads = map[string]servingSpec{
	// The paper's headline serving path at the DefaultKVSConfig scale:
	// hash store in DRAM, no LSM work.
	"kvs-get": {keys: 1 << 20, conns: 10, window: 32, getPct: 100, warmup: 320 * 20, measured: 320 * 200},
	// YCSB-E: the merged LSM iterator dominates.
	"lsm-scan": {keys: 1 << 16, lsm: true, conns: 10, window: 8, scanPct: 95, scanLen: 16, warmup: 80 * 20, measured: 80 * 100},
	// YCSB-A: memtable inserts, WAL-wrap stalls, flushes and compactions.
	"lsm-update": {keys: 1 << 16, lsm: true, conns: 10, window: 8, getPct: 50, updatePct: 50, warmup: 80 * 20, measured: 80 * 200},
}

// probeSpec is figures-quick's serving probe: the quick-scale fig8
// RAMBDA zipf GET point (2^18 keys), driven by the seed, so the sweep's
// workload also reports set-up and virtual metrics.
var probeSpec = servingSpec{keys: 1 << 18, conns: 10, window: 32, getPct: 100, warmup: 320 * 10, measured: 320 * 60}

// figureIDs are the quick sweep's specs in print order; serving
// workloads report their host.experiments metrics as 0.
var figureIDs = []string{"fig1", "fig5", "fig7", "fig8", "fig9", "fig10", "tab3", "fig12", "fig13",
	"scalability", "chaos", "breakdown", "scaleout", "chaos-scaleout", "ycsb"}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "kvs-get, lsm-scan, lsm-update or figures-quick")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same requests")
	seconds := fs.Float64("seconds", 10, "how long to keep repeating trials")
	traced := fs.Int("trace", 0, "1 measures per-layer host self time instead of the end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	// Load comes from this process alone: the serving workloads drive
	// one goroutine on the sequential engine, the sweep two workers.
	runtime.GOMAXPROCS(min(sweepWorkers, runtime.NumCPU()))
	sim.SetParallel(1)

	spec, serving := servingWorkloads[*workload]
	if !serving && *workload != "figures-quick" {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var rep *report
	if serving {
		rep = benchServing(spec, *seed, budget, *traced == 1, newReference())
	} else {
		rep = benchFigures(*seed, budget, *traced == 1)
	}
	rss, err := peakRSSMiB()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep.e2e = append(rep.e2e, metric{"peak_rss_mb", rss, "MiB"})
	return rep.print(stdout, stderr, *workload, *traced == 1)
}

type metric struct {
	name  string
	value float64
	unit  string
}

// report is one run's outcome: both metric sets are computed, and the
// JSON line carries the one --trace selects.
type report struct {
	attempted, failed int64
	errs              []string // validation and determinism failures
	e2e, layers       []metric
	notes             []string
}

func (r *report) fail(format string, a ...any) { r.errs = append(r.errs, fmt.Sprintf(format, a...)) }

func (r *report) print(stdout, stderr io.Writer, workload string, traced bool) int {
	for _, e := range r.errs {
		fmt.Fprintln(stderr, "perfbench: FAIL:", e)
	}
	fmt.Fprintf(stdout, "workload %s\n", workload)
	for _, n := range r.notes {
		fmt.Fprintf(stdout, "  %s\n", n)
	}
	fmt.Fprintf(stdout, "  attempted %d, failed %d\n", r.attempted, r.failed)
	sets := []struct {
		title string
		ms    []metric
	}{{"end to end", r.e2e}}
	if traced {
		sets = append(sets, struct {
			title string
			ms    []metric
		}{"per layer (traced run)", r.layers})
	}
	for _, set := range sets {
		fmt.Fprintf(stdout, "%s:\n", set.title)
		for _, m := range set.ms {
			fmt.Fprintf(stdout, "  %-34s %14s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 8, 64), m.unit)
		}
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{len(r.errs) == 0 && r.failed == 0, r.attempted, r.failed, map[string]jm{}}
	ms := r.e2e
	if traced {
		ms = r.layers
	}
	for _, m := range ms {
		out.Metrics[m.name] = jm{m.value, m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// servingRun is a serving workload's trials: untraced ones for the
// end-to-end metrics, traced ones (with -trace 1) for the layers.
type servingRun struct {
	plain, traced []trial
}

// measureServing repeats fresh trials until the budget is spent and
// each kind has its minimum count; traced runs alternate the kinds so
// both see the same machine conditions.
func measureServing(spec servingSpec, seed uint64, budget time.Duration, traced bool, minPlain int, ref *reference) servingRun {
	var r servingRun
	start := time.Now()
	for i := 0; ; i++ {
		done := time.Since(start) >= budget && len(r.plain) >= minPlain
		if traced {
			done = done && len(r.traced) >= 2 && i%2 == 0
		}
		if done {
			return r
		}
		if traced && i%2 == 1 {
			r.traced = append(r.traced, runTrial(spec, seed, true, ref))
		} else {
			r.plain = append(r.plain, runTrial(spec, seed, false, ref))
		}
	}
}

// check counts every trial's requests and failures into rep and checks
// that all trials, traced or not, produced identical virtual metrics.
func (sr servingRun) check(rep *report, label string) {
	all := append(append([]trial(nil), sr.plain...), sr.traced...)
	for i, t := range all {
		rep.attempted += int64(t.attempted)
		rep.failed += int64(t.failed)
		if t.firstErr != nil {
			rep.fail("%s: %v", label, t.firstErr)
		}
		if t.virt != all[0].virt {
			rep.fail("%s: virtual metrics differ between trials: %+v vs %+v (trial %d, traced=%v)",
				label, all[0].virt, t.virt, i, i >= len(sr.plain))
		}
	}
}

func (sr servingRun) e2e() []metric {
	v := sr.plain[0].virt
	return []metric{
		{"setup_s", medianOf(sr.plain, func(t trial) float64 { return t.setupHost }), "s"},
		{"sim_rps", float64(sr.plain[0].window.lapRequests) / median(sr.lapsHost()), "1/s"},
		{"wall_s", medianOf(sr.plain, func(t trial) float64 { return t.totalHost }), "s"},
		{"virt_goodput_mops", v.GoodputMops, "Mops"},
		{"virt_p50_us", v.P50us, "us"},
		{"virt_p99_us", v.P99us, "us"},
	}
}

func (sr servingRun) lapsHost() []float64 {
	var laps []float64
	for _, t := range sr.plain {
		laps = append(laps, t.lapsHost...)
	}
	return laps
}

// medianLap is the median raw lap's host seconds over the trials.
func medianLap(ts []trial) float64 {
	var laps []float64
	for _, t := range ts {
		for _, l := range t.window.laps {
			laps = append(laps, l.Seconds())
		}
	}
	return median(laps)
}

// raw reports the end-to-end host times unscaled, and the median
// reference lap they were scaled by.
func (sr servingRun) raw() []metric {
	return []metric{
		{"host.raw.setup_s", medianOf(sr.plain, func(t trial) float64 { return t.setup.Seconds() }), "s"},
		{"host.raw.sim_rps", float64(sr.plain[0].window.lapRequests) / medianLap(sr.plain), "1/s"},
		{"host.raw.wall_s", medianOf(sr.plain, func(t trial) float64 { return t.total.Seconds() }), "s"},
		{"host.ref_lap_s", medianOf(sr.plain, func(t trial) float64 { return t.refLap.Seconds() }), "s"},
	}
}

// layers reports per-trial means, so the self times add up to
// host.measured_s, less the microseconds spent outside the driver span.
func (sr servingRun) layers() []metric {
	n := float64(len(sr.traced))
	avg := func(f func(t trial) float64) float64 {
		s := 0.0
		for _, t := range sr.traced {
			s += f(t)
		}
		return s / n
	}
	var out []metric
	for l := layer(0); l < numLayers; l++ {
		out = append(out, metric{layerNames[l], avg(func(t trial) float64 { return t.self[l].Seconds() }), "s"})
	}
	appctx := avg(func(t trial) float64 { return t.self[layerAppCtx].Seconds() })
	accesses := avg(func(t trial) float64 { return float64(t.accesses) })
	requests := avg(func(t trial) float64 { return float64(t.window.requests) })
	allocs := 0.0
	for _, t := range sr.plain {
		allocs += float64(t.allocs) / float64(t.window.requests)
	}
	nsPerAccess := 0.0
	if accesses > 0 {
		nsPerAccess = appctx * 1e9 / accesses
	}
	out = append(out,
		metric{"host.measured_s", avg(func(t trial) float64 { return t.measured.Seconds() }), "s"},
		metric{"count.requests", requests, "count"},
		metric{"count.mem_accesses", accesses, "count"},
		metric{"count.allocs_per_req", allocs / float64(len(sr.plain)), "1/req"},
		metric{"count.lsm.flushes", avg(func(t trial) float64 { return float64(t.lsmDelta.Flushes) }), "count"},
		metric{"count.lsm.compactions", avg(func(t trial) float64 { return float64(t.lsmDelta.Compactions) }), "count"},
		metric{"count.lsm.stalls", avg(func(t trial) float64 { return float64(t.lsmDelta.Stalls) }), "count"},
		metric{"count.lsm.scan_pairs", avg(func(t trial) float64 { return float64(t.window.scanPairs) }), "count"},
		metric{"host.core.appctx_ns_per_access", nsPerAccess, "ns"},
		metric{"trace_overhead_frac", medianLap(sr.traced)/medianLap(sr.plain) - 1, "frac"},
	)
	out = append(out, sr.raw()...)
	for _, st := range stageMetrics {
		out = append(out, metric{"virt.stage." + st.String() + "_frac", sr.traced[0].stages[st], "frac"})
	}
	return out
}

func benchServing(spec servingSpec, seed uint64, budget time.Duration, traced bool, ref *reference) *report {
	rep := &report{}
	sr := measureServing(spec, seed, budget, traced, 3, ref)
	sr.check(rep, "serving")
	rep.e2e = sr.e2e()
	rep.notes = append(rep.notes, trialNotes(sr)...)
	if traced {
		rep.layers = sr.layers()
		rep.layers = append(rep.layers, metric{"host.runtime.gc_cpu_s",
			medianOf(sr.plain, func(t trial) float64 { return t.gcCPU }), "s"})
		for _, id := range figureIDs {
			rep.layers = append(rep.layers, metric{"host.experiments." + id + "_s", 0, "s"})
		}
		rep.layers = append(rep.layers, failedFrac(rep))
	}
	return rep
}

// benchFigures reports raw host times: a reference lap timed beside
// jobs running on both workers measured their contention more than the
// machine's speed, and doubled the spread of ten-run medians.
func benchFigures(seed uint64, budget time.Duration, traced bool) *report {
	rep := &report{}
	start := time.Now()
	probe := measureServing(probeSpec, seed, 0, traced, 3, nil)
	probe.check(rep, "probe")
	var sweeps []sweep
	for len(sweeps) == 0 || (!traced && time.Since(start) < budget) {
		sweeps = append(sweeps, runSweep(experiments.StandardSpecs(true), traced))
	}
	for _, sw := range sweeps {
		rep.attempted += int64(sw.jobs)
		rep.failed += int64(sw.failed)
		if sw.firstErr != nil {
			rep.fail("figures: %v", sw.firstErr)
		}
		if sw.tables != sweeps[0].tables {
			rep.fail("figures: tables differ between sweeps")
		}
	}
	walls := make([]float64, len(sweeps))
	for i, sw := range sweeps {
		walls[i] = sw.wall.Seconds()
	}
	e2e := probe.e2e()
	for i := range e2e {
		if e2e[i].name == "wall_s" {
			e2e[i].value = median(walls)
		}
	}
	rep.e2e = e2e
	rep.notes = append(rep.notes, "probe (quick fig8 RAMBDA zipf GET point, seeded):")
	rep.notes = append(rep.notes, trialNotes(probe)...)
	rep.notes = append(rep.notes,
		fmt.Sprintf("sweeps %d, %d jobs each on %d workers, tables sha256 %s", len(sweeps), sweeps[0].jobs, sweepWorkers, tablesDigest(sweeps[0].tables)))
	for i, sw := range sweeps {
		rep.notes = append(rep.notes, fmt.Sprintf("  sweep %d: wall %.4f s", i, sw.wall.Seconds()))
	}
	if traced {
		sw := sweeps[0]
		rep.layers = probe.layers()
		rep.layers = append(rep.layers, metric{"host.runtime.gc_cpu_s", sw.gcCPU, "s"})
		for i, id := range sw.ids {
			rep.layers = append(rep.layers, metric{"host.experiments." + id + "_s", sw.perSpec[i].Seconds(), "s"})
		}
		rep.layers = append(rep.layers, failedFrac(rep))
	}
	return rep
}

func failedFrac(rep *report) metric {
	return metric{"failed_frac", float64(rep.failed) / float64(max(rep.attempted, 1)), "frac"}
}

func trialNotes(sr servingRun) []string {
	v := sr.plain[0].virt
	notes := []string{fmt.Sprintf("trials %d plain + %d traced; virtual window %d samples: goodput %.4f Mops, p50 %.4f us, p99 %.4f us",
		len(sr.plain), len(sr.traced), v.Samples, v.GoodputMops, v.P50us, v.P99us)}
	for _, m := range sr.raw() {
		notes = append(notes, fmt.Sprintf("%s %.6g %s", m.name, m.value, m.unit))
	}
	for _, set := range []struct {
		kind string
		ts   []trial
	}{{"plain", sr.plain}, {"traced", sr.traced}} {
		for i, t := range set.ts {
			notes = append(notes, fmt.Sprintf("  %s trial %d: raw setup %.4f s, measured %.4f s, total %.4f s; reference lap %.5f s",
				set.kind, i, t.setup.Seconds(), t.measured.Seconds(), t.total.Seconds(), t.refLap.Seconds()))
		}
	}
	return notes
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(ts []trial, f func(trial) float64) float64 {
	xs := make([]float64, len(ts))
	for i, t := range ts {
		xs[i] = f(t)
	}
	return median(xs)
}

// peakRSSMiB reads the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("peak RSS: no VmHWM in /proc/self/status")
}
