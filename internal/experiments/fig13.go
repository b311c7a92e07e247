package experiments

import (
	"fmt"
	"math"

	"rambda/internal/core"
	"rambda/internal/dlrm"
	"rambda/internal/hostcpu"
	"rambda/internal/interconnect"
	"rambda/internal/memspace"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// Fig13Row is one bar of Fig. 13: MERCI-based DLRM inference throughput
// for one (dataset, system).
type Fig13Row struct {
	Dataset    string
	System     string
	Throughput float64 // queries/sec
}

// Fig13Config scales the DLRM experiment.
type Fig13Config struct {
	Queries  int
	Dim      int
	RowScale float64 // scales the per-category table heights
	Seed     uint64
}

// DefaultFig13Config mirrors the paper's configuration at simulation
// scale (embedding dimension 64, memo budget 0.25x).
func DefaultFig13Config() Fig13Config {
	return Fig13Config{Queries: 20000, Dim: 64, RowScale: 0.25, Seed: 13}
}

// dlrmWire is the on-wire size of a query (feature ids) and its
// response (the CTR score).
func dlrmWire(q dlrm.Query, bundleSize int) (req, resp int) {
	return 8 + 4*q.NumItems(bundleSize), 8
}

// buildDLRM materializes a category's model in the given space/kind.
func buildDLRM(cat dlrm.Category, cfg Fig13Config, space *memspace.Space, kind memspace.Kind) (*dlrm.Model, *dlrm.Dataset) {
	cat.Rows = int(float64(cat.Rows) * cfg.RowScale)
	ds := dlrm.NewDataset(cat, cfg.Seed)
	rng := sim.NewRNG(cfg.Seed + 3)
	table := dlrm.NewTable(space, "emb-"+cat.Name, cat.Rows, cfg.Dim, kind, rng)
	memo := dlrm.BuildMemo(space, "memo-"+cat.Name, table, ds.Bundles, cat.Rows/4, kind, rng)
	mlp := dlrm.NewMLP(cfg.Dim, 32, rng)
	return dlrm.NewModel(table, memo, mlp, ds.Bundles), ds
}

// dlrmStream is one category's query stream, inferred once per sweep.
// The stream is timing-independent: query k is consumed by the k-th
// request in walk order, whichever system walks it. Per query it keeps
// what the timing models charge, with the gather trace as row
// references that each system rebases onto its own table and memo.
type dlrmStream struct {
	cat                 string
	tableRows, memoRows int
	rowBytes            int
	queries             []dlrmQuery
}

type dlrmQuery struct {
	reqB, respB    int
	reduced, flops int      // ReducedVectors and FLOPs of the inference
	rows           []uint32 // gather order; memoRow marks a memo row
}

// memoRow flags a row reference into the memo table.
const memoRow = 1 << 31

// fig13Key names a category's stream in the shared table.
type fig13Key struct {
	cat dlrm.Category
	cfg Fig13Config
}

// fig13Cores are the CPU systems' core counts; each core serves eight
// closed-loop clients, and the accelerator variants serve
// fig13AccelClients.
var fig13Cores = []int{1, 2, 4, 8, 16}

const fig13AccelClients = 64

// fig13PerClient spreads the query budget over a system's clients.
func fig13PerClient(cfg Fig13Config, clients int) int {
	return max(cfg.Queries/clients, 1)
}

// fig13Stream returns the category's stream from the sweep's shared
// table, inferring it on first use: the model is built once in a
// private space, every query runs through InferInto and is checked
// against the reference, and the stream is long enough for the system
// that consumes the most queries.
func fig13Stream(cat dlrm.Category, cfg Fig13Config, sh *shared) *dlrmStream {
	return sharedGet(sh, fig13Key{cat, cfg}, func() *dlrmStream {
		n := fig13AccelClients * fig13PerClient(cfg, fig13AccelClients)
		for _, cores := range fig13Cores {
			n = max(n, cores*8*fig13PerClient(cfg, cores*8))
		}
		model, ds := buildDLRM(cat, cfg, memspace.New(), memspace.KindDRAM)
		table, memo := model.Table.Range(), model.Memo.Table().Range()
		s := &dlrmStream{cat: cat.Name, tableRows: model.Table.Rows, memoRows: model.Memo.Table().Rows,
			rowBytes: model.Table.RowBytes(), queries: make([]dlrmQuery, n)}
		// Sized for the longest possible gather, so the per-query
		// subslices share one backing array.
		rows := make([]uint32, 0, n*(cat.BundlesPerQuery*cat.BundleSize+cat.SinglesPerQuery))
		var q dlrm.Query
		var sc dlrm.InferScratch
		ref := make([]float32, cfg.Dim)
		for k := range s.queries {
			ds.NextQueryInto(&q)
			score, _, st := model.InferInto(q, dlrm.AggSum, &sc)
			lo := len(rows)
			for _, a := range st.Trace {
				if memo.Contains(a.Addr) {
					rows = append(rows, memoRow|uint32(int(a.Addr-memo.Base)/s.rowBytes))
				} else {
					rows = append(rows, uint32(int(a.Addr-table.Base)/s.rowBytes))
				}
			}
			w := &s.queries[k]
			w.reqB, w.respB = dlrmWire(q, cat.BundleSize)
			w.reduced, w.flops = st.ReducedVectors, st.FLOPs
			w.rows = rows[lo:len(rows):len(rows)]
			checkInference(model, ds.Bundles, q, score, w, ref, cat.Name, k)
		}
		return s
	})
}

// checkInference recomputes one query the unscattered way — every row
// decoded with Table.RowInto and folded with dlrm.Reduce in gather
// order, then MLP.Forward — and panics, naming the category and query,
// unless the shared build's score, FLOPs and trace all agree bit for
// bit. Decoding into one buffer per query keeps the check from adding
// a small allocation per gathered row.
func checkInference(model *dlrm.Model, bundles [][]int, q dlrm.Query, score float32,
	w *dlrmQuery, acc []float32, cat string, k int) {
	n := 0
	vec := make([]float32, len(acc))
	fold := func(t *dlrm.Table, row int, ref uint32) {
		if n >= len(w.rows) || w.rows[n] != ref {
			panic(fmt.Sprintf("fig13: %s query %d: gather %d diverges from the reference (row ref %#x)", cat, k, n, ref))
		}
		dlrm.Reduce(dlrm.AggSum, acc, t.RowInto(vec, row), 1, n == 0)
		n++
	}
	for i := range acc {
		acc[i] = 0
	}
	for _, b := range q.Bundles {
		if row, ok := model.Memo.Lookup(b); ok {
			fold(model.Memo.Table(), row, memoRow|uint32(row))
			continue
		}
		for _, item := range bundles[b] {
			fold(model.Table, item, uint32(item))
		}
	}
	for _, item := range q.Singles {
		fold(model.Table, item, uint32(item))
	}
	want, flops := model.MLP.Forward(acc)
	if n != len(w.rows) || n != w.reduced || flops != w.flops ||
		math.Float32bits(want) != math.Float32bits(score) {
		panic(fmt.Sprintf("fig13: %s query %d: inference (score %08x, %d rows, %d FLOPs) != reference (score %08x, %d rows, %d FLOPs)",
			cat, k, math.Float32bits(score), len(w.rows), w.flops, math.Float32bits(want), n, flops))
	}
}

// dlrmLayout is one system's table and memo. They are reserved in the
// order and at the sizes buildDLRM allocates them, so every address is
// the one a backed build in that space would have; the bytes are
// phantom because no timing model reads them.
type dlrmLayout struct {
	table, memo memspace.Addr
	rowBytes    int
}

func (s *dlrmStream) reserve(space *memspace.Space, kind memspace.Kind) dlrmLayout {
	table := space.AllocPhantom("emb-"+s.cat, uint64(s.tableRows*s.rowBytes), kind)
	memo := space.AllocPhantom("memo-"+s.cat, uint64(s.memoRows*s.rowBytes), kind)
	return dlrmLayout{table: table.Base, memo: memo.Base, rowBytes: s.rowBytes}
}

// addr rebases a row reference onto the layout.
func (l dlrmLayout) addr(ref uint32) memspace.Addr {
	if ref&memoRow != 0 {
		return l.memo + memspace.Addr(int(ref&^memoRow)*l.rowBytes)
	}
	return l.table + memspace.Addr(int(ref)*l.rowBytes)
}

// Per-query CPU instruction path: request preprocessing + reduction
// bookkeeping + MLP, per reduced vector and per query. Calibrated to
// MERCI's single-core throughput scaled to the testbed clock.
const (
	cpuDLRMBaseCycles   = 700
	cpuDLRMPerRowCycles = 45
	cpuDLRMGatherMLP    = 8
	// cpuDLRMDRAMFactor reflects the activation-bandwidth waste of
	// random 256 B row gathers: the effective host bandwidth is ~40% of
	// peak, which is what caps MERCI at eight cores (Sec. VI-D).
	cpuDLRMDRAMFactor = 3.2
)

// fig13CPU measures MERCI reduction on k cores behind the RDMA network
// front-end.
func fig13CPU(s *dlrmStream, cfg Fig13Config, cores int) float64 {
	m := core.NewMachine(core.MachineConfig{Name: "srv", Cores: cores})
	lay := s.reserve(m.Space, memspace.KindDRAM)
	net := interconnect.NewDuplex("net", core.NetBW, core.NetOneWay)

	clients := cores * 8
	k := 0
	res := sim.ClosedLoop{Clients: clients, PerClient: fig13PerClient(cfg, clients), Warmup: 1,
		Stagger: 60 * sim.Nanosecond, Jitter: 300 * sim.Nanosecond, JitterSeed: cfg.Seed}.Run(
		func(_ int, issue sim.Time) sim.Time {
			q := &s.queries[k]
			k++
			t := net.AtoB.Send(issue, q.reqB)
			t = m.CPU.Process(t, hostcpu.Work{
				Cycles:      cpuDLRMBaseCycles + cpuDLRMPerRowCycles*q.reduced,
				Accesses:    len(q.rows),
				AccessBytes: lay.rowBytes,
				Addr:        lay.table,
				Parallel:    true,
				MLP:         cpuDLRMGatherMLP,
				DRAMFactor:  cpuDLRMDRAMFactor,
			})
			return net.BtoA.Send(t, q.respB)
		})
	return res.Throughput
}

// apuReduceCyclesPerRow is the APU's pipelined SIMD reduction cost.
const apuReduceCyclesPerRow = 2

// fig13Rambda measures the accelerator variants. The base prototype
// suffers the wimpy-controller serial gather over the cc-link
// (ReadDataBlocking); LD/LH issue 64-wide waves against local memory
// (ReadDataWave). The CPU handles request preprocessing (Sec. IV-C's
// CPU-accelerator collaboration) via the intra-machine rings.
func fig13Rambda(s *dlrmStream, cfg Fig13Config, variant core.AccelVariant) float64 {
	kind := memspace.KindDRAM
	if variant != core.AccelBase {
		kind = memspace.KindAccelLocal
	}
	m := core.NewMachine(core.MachineConfig{Name: "srv", Variant: variant})
	lay := s.reserve(m.Space, kind)
	net := interconnect.NewDuplex("net", core.NetBW, core.NetOneWay)
	ctx := &core.AppCtx{M: m, A: m.Accel}

	clients := fig13AccelClients
	k := 0
	addrs := make([]memspace.Addr, 0, 64)
	res := sim.ClosedLoop{Clients: clients, PerClient: fig13PerClient(cfg, clients), Warmup: 1,
		Stagger: 60 * sim.Nanosecond, Jitter: 300 * sim.Nanosecond, JitterSeed: cfg.Seed}.Run(
		func(_ int, issue sim.Time) sim.Time {
			q := &s.queries[k]
			k++
			t := net.AtoB.Send(issue, q.reqB)
			// Preprocessing runs on one CPU core (the paper observes
			// ~60% of a core keeps up); request and model-ready input
			// cross the intra-machine rings.
			t = ctx.InvokeCPU(t, q.reqB, 500)

			if variant == core.AccelBase {
				// Dense gather over the cc-link: serial issue.
				for _, r := range q.rows {
					t = m.Accel.ReadDataBlocking(t, lay.addr(r), lay.rowBytes)
				}
			} else {
				// 64-wide issue against accelerator-local memory.
				for i := 0; i < len(q.rows); i += 64 {
					addrs = addrs[:0]
					for _, r := range q.rows[i:min(i+64, len(q.rows))] {
						addrs = append(addrs, lay.addr(r))
					}
					t = m.Accel.ReadDataWave(t, addrs, lay.rowBytes)
				}
			}
			t = ctx.Compute(t, apuReduceCyclesPerRow*q.reduced+q.flops/64)
			return net.BtoA.Send(t, q.respB)
		})
	return res.Throughput
}

// fig13Plan enumerates (dataset x system) as runner jobs — six Amazon
// categories by five CPU core counts plus three accelerator variants.
// Each job builds its own machine; the eight jobs of a category share
// its inferred query stream.
func fig13Plan(cfg Fig13Config, sh *shared) ([]Fig13Row, []runner.Job) {
	type point struct {
		cat dlrm.Category
		fn  func(*dlrmStream) float64
	}
	var rows []Fig13Row
	var points []point
	for _, cat := range dlrm.AmazonCategories {
		for _, cores := range fig13Cores {
			rows = append(rows, Fig13Row{Dataset: cat.Name, System: fmt.Sprintf("CPU-%d", cores)})
			points = append(points, point{cat, func(s *dlrmStream) float64 { return fig13CPU(s, cfg, cores) }})
		}
		for _, v := range []struct {
			name    string
			variant core.AccelVariant
		}{{"RAMBDA", core.AccelBase}, {"RAMBDA-LD", core.AccelLD}, {"RAMBDA-LH", core.AccelLH}} {
			rows = append(rows, Fig13Row{Dataset: cat.Name, System: v.name})
			points = append(points, point{cat, func(s *dlrmStream) float64 { return fig13Rambda(s, cfg, v.variant) }})
		}
	}
	// Jobs are queued system-major, so each category's first job infers
	// its stream while the other workers infer the next categories'
	// instead of waiting for it.
	perCat := len(points) / len(dlrm.AmazonCategories)
	jobs := make([]runner.Job, 0, len(points))
	for sys := 0; sys < perCat; sys++ {
		for i := sys; i < len(points); i += perCat {
			jobs = append(jobs, runner.Job{Experiment: "fig13", Point: i, Name: rows[i].Dataset + "/" + rows[i].System,
				Fn: func() { rows[i].Throughput = points[i].fn(fig13Stream(points[i].cat, cfg, sh)) }})
		}
	}
	return rows, jobs
}

// Fig13 runs all six datasets across the system matrix.
func Fig13(cfg Fig13Config) []Fig13Row {
	rows, jobs := fig13Plan(cfg, newShared())
	runner.MustRun(0, jobs)
	return rows
}

func fig13Render(rows []Fig13Row) *Table {
	t := &Table{
		ID:      "fig13",
		Title:   "MERCI-based DLRM inference throughput (Amazon Review-like datasets)",
		Columns: []string{"dataset", "system", "throughput"},
		Notes: []string{
			"paper: CPU scales to 8 cores (membw-bound); RAMBDA 19.7-31.3% of CPU-1;",
			"LD 52.8-95.3% of CPU-8; LH 1.6-3.1x CPU-8 (network becomes the limit)",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Dataset, r.System, fmt.Sprintf("%.2f Mq/s", r.Throughput/1e6))
	}
	return t
}

// Fig13Spec exposes the sweep for a shared pool.
func Fig13Spec(cfg Fig13Config) Spec { return fig13Spec(cfg, newShared()) }

func fig13Spec(cfg Fig13Config, sh *shared) Spec {
	rows, jobs := fig13Plan(cfg, sh)
	return Spec{ID: "fig13", Jobs: jobs, Table: func() *Table { return fig13Render(rows) }}
}

// Fig13CPUOne and Fig13RambdaOne expose single-configuration runs for
// the benchmark harness; each infers the category's stream itself.
func Fig13CPUOne(cat dlrm.Category, cfg Fig13Config, cores int) float64 {
	return fig13CPU(fig13Stream(cat, cfg, newShared()), cfg, cores)
}

// Fig13RambdaOne measures one accelerator variant.
func Fig13RambdaOne(cat dlrm.Category, cfg Fig13Config, v core.AccelVariant) float64 {
	return fig13Rambda(fig13Stream(cat, cfg, newShared()), cfg, v)
}
