// Package experiments regenerates every table and figure of the paper's
// evaluation (Sec. VI) on the simulated testbed, plus the non-paper
// experiments (chaos, breakdown, scaleout, chaos-scaleout, ycsb). Each
// experiment has one entry point, its XSpec: the sweep as runner jobs
// plus the table render (RunSpec runs one; cmd/rambda-figures pools
// them all). The paper experiments also keep a rows function (FigN,
// TabN, Scalability) that runs the sweep and returns structured rows
// for tests and benchmarks. Paper-vs-measured comparisons live in
// EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"path/filepath"
	"strings"

	"rambda/internal/core"
	"rambda/internal/memdev"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/runner"
)

// Spec is one figure's parallel execution plan: the sweep enumerated as
// independent runner jobs (each builds its own machines and RNGs, reads
// any deterministic work it has in common with other jobs from the
// sweep's shared table, and writes a result slot indexed by sweep
// position) plus the rendering step that runs after every job has
// completed. Exposing the jobs instead of running them lets
// cmd/rambda-figures flatten all figures into a single pool, so whole
// figures overlap with each other as well as their own points — while
// the slot discipline keeps the rendered output byte-identical to a
// sequential run.
type Spec struct {
	ID    string
	Jobs  []runner.Job
	Table func() *Table // render; call only after Jobs have all run
}

// StandardSpecs enumerates every experiment in print order, at full or
// quick scale — the single source of the sweep configuration shared by
// cmd/rambda-figures, cmd/rambda-bench, and the output-pinning tests.
// It exports nothing, so every collector-capable spec stays on the
// nil-collector fast path it has in the paper figures.
func StandardSpecs(quick bool) []Spec {
	return StandardSpecsObs(quick, "")
}

// StandardSpecsObs is StandardSpecs with observability exports: with a
// non-empty obsDir, every spec that collects data writes
// obsDir/<id>.trace.json (Chrome trace_event spans) and/or
// obsDir/<id>.metrics.json (metrics registries) when its table renders.
// Tables are identical either way.
func StandardSpecsObs(quick bool, obsDir string) []Spec {
	f7 := DefaultFig7Config()
	kvs := DefaultKVSConfig()
	f12 := DefaultFig12Config()
	f13 := DefaultFig13Config()
	chaos := DefaultChaosConfig()
	bd := DefaultBreakdownConfig()
	sc := DefaultScaleoutConfig()
	cso := DefaultChaosScaleoutConfig()
	yc := DefaultYCSBConfig()
	fig1Requests := 20000
	if quick {
		fig1Requests = 4000
		f7.Nodes = 1 << 18
		f7.Requests = 20000
		kvs.Keys = 1 << 18
		kvs.Requests = 15000
		f12.Transactions = 4000
		f13.Queries = 6000
		f13.RowScale = 0.1
		chaos.Writes = 1200
		chaos.Txs = 600
		bd.Requests = 3000
		sc.Keys = 1 << 13
		sc.Requests = 4800
		cso.Keys = 1 << 12
		cso.Requests = 4000
		yc.Keys = 1 << 13
		yc.Requests = 4000
	}
	// One shared-work table per sweep: the KVS figures and breakdown
	// share the preload image and repeated KVS points, fig13's systems
	// share each category's inferred query stream.
	sh := newShared()
	// The chaos spec stays after the paper figures: figure goldens pin
	// their print order, and non-paper experiments (chaos, breakdown,
	// scaleout) append after them.
	return []Spec{
		Fig1Spec(fig1Requests, 1),
		Fig5Spec(),
		Fig7Spec(f7),
		fig8Spec(kvs, sh),
		fig9Spec(kvs, sh),
		fig10Spec(kvs, sh),
		tab3Spec(kvs, sh),
		Fig12Spec(f12),
		fig13Spec(f13, sh),
		ScalabilitySpec(DefaultScalabilityConfig()),
		ChaosSpec(chaos),
		breakdownSpec(bd, obsDir, sh),
		ScaleoutSpec(sc, obsDir),
		ChaosScaleoutSpec(cso, obsDir),
		YCSBSpec(yc, obsDir),
	}
}

// RunSpec executes a figure's jobs on `parallel` workers (<= 0 uses the
// runner default) and renders its table.
func RunSpec(parallel int, s Spec) *Table {
	runner.MustRun(parallel, s.Jobs)
	return s.Table()
}

// writeExports writes a spec's collected data under obsDir as
// <id>.trace.json (skipped when traces is nil) and <id>.metrics.json.
// Same seed, same files, byte for byte.
func writeExports(obsDir, id string, traces []obs.TraceJSON, metrics []obs.MetricsJSON) {
	if traces != nil {
		if err := obs.WriteChromeTraceFile(filepath.Join(obsDir, id+".trace.json"), traces); err != nil {
			panic(fmt.Sprintf("%s: write trace: %v", id, err))
		}
	}
	if err := obs.WriteMetricsFile(filepath.Join(obsDir, id+".metrics.json"), metrics); err != nil {
		panic(fmt.Sprintf("%s: write metrics: %v", id, err))
	}
}

// pointRegistries holds one metrics registry per sweep point of a spec
// that exports, slot-indexed like the rows so the export is identical
// for every worker count. It is nil when the spec exports nothing,
// which keeps every point on the collector-free path.
type pointRegistries []*obs.Registry

func newPointRegistries(points int, obsDir string) pointRegistries {
	if obsDir == "" {
		return nil
	}
	regs := make(pointRegistries, points)
	for i := range regs {
		regs[i] = obs.NewRegistry()
	}
	return regs
}

// at returns point i's registry, or nil when nothing is collected.
func (r pointRegistries) at(i int) *obs.Registry {
	if r == nil {
		return nil
	}
	return r[i]
}

// export writes the registries as obsDir/<id>.metrics.json, naming
// point i name(i). It does nothing when nothing was collected.
func (r pointRegistries) export(obsDir, id string, name func(i int) string) {
	if r == nil {
		return
	}
	mj := make([]obs.MetricsJSON, len(r))
	for i, reg := range r {
		mj[i] = obs.MetricsJSON{Name: name(i), Registry: reg}
	}
	writeExports(obsDir, id, nil, mj)
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("experiments: row has %d cells, table %q has %d columns",
			len(cells), t.ID, len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// f2, f1 and mops format numbers consistently across experiment tables.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }

func mops(v float64) string { return fmt.Sprintf("%.2f Mops", v/1e6) }

// newHostMem builds a standalone host memory system at testbed
// parameters (for models that sit outside a full core.Machine, like the
// SmartNIC's host).
func newHostMem(space *memspace.Space) *memdev.System {
	return &memdev.System{
		Space: space,
		DRAM:  memdev.NewDRAM("host:dram", core.DRAMChannels, core.DRAMBW, core.DRAMLatency),
		NVM:   memdev.NewNVM("host:nvm", core.NVMDimms, core.NVMReadBW, core.NVMLatency, core.NVMWriteCost),
		LLC:   memdev.NewLLC("host:llc", core.LLCBW, core.LLCLatency),
	}
}
