package experiments

import (
	"encoding/binary"

	"rambda/internal/core"
	"rambda/internal/hostcpu"
	"rambda/internal/memspace"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// Fig7Row is one bar of Fig. 7: microbenchmark throughput of one
// configuration, normalized within its memory type (DRAM results to
// 1-core CPU, NVM results to RAMBDA-DDIO, as in the paper).
type Fig7Row struct {
	Mem        string // "dram" | "nvm"
	Config     string
	Throughput float64 // requests/sec
	Normalized float64
}

// Fig7Config scales the experiment (the paper uses a 10M-node list and
// 1M requests; defaults here are scaled for simulation turnaround —
// see DESIGN.md on scaling).
type Fig7Config struct {
	Nodes    int
	Requests int // per configuration
	Window   int // outstanding requests per connection
	Seed     uint64
}

// DefaultFig7Config returns the scaled experiment size.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{Nodes: 1 << 20, Requests: 60000, Window: 16, Seed: 7}
}

// linkedList is the microbenchmark data structure: a permuted cycle of
// 64 B nodes ([8B next index][8B value][48B padding]).
type linkedList struct {
	region *memspace.Region
	space  *memspace.Space
	nodes  int
}

const nodeBytes = 64

func buildLinkedList(space *memspace.Space, kind memspace.Kind, nodes int, rng *sim.RNG) *linkedList {
	region := space.Alloc("microbench-list", uint64(nodes*nodeBytes), kind)
	perm := rng.Perm(nodes)
	buf := region.Bytes()
	for i := 0; i < nodes; i++ {
		binary.LittleEndian.PutUint64(buf[i*nodeBytes:], uint64(perm[i]))
		binary.LittleEndian.PutUint64(buf[i*nodeBytes+8:], uint64(i)*3+1)
	}
	return &linkedList{region: region, space: space, nodes: nodes}
}

func (l *linkedList) addr(i int) memspace.Addr {
	return l.region.Base + memspace.Addr(i%l.nodes*nodeBytes)
}

func (l *linkedList) next(i int) int {
	return int(binary.LittleEndian.Uint64(l.space.Slice(l.addr(i), 8)))
}

func (l *linkedList) value(i int) uint64 {
	return binary.LittleEndian.Uint64(l.space.Slice(l.addr(i)+8, 8))
}

// traverse walks three nodes starting at idx and returns the final
// node's value plus the visited node indices (paper: "randomly pick a
// node ... traverse the two succeeding nodes, and return the value in
// the second node").
func (l *linkedList) traverse(idx int) (uint64, [3]int) {
	a := idx % l.nodes
	b := l.next(a)
	c := l.next(b)
	return l.value(c), [3]int{a, b, c}
}

// cpuMicrobenchCycles is the per-request instruction path of the CPU
// implementation (request parse, pointer chase bookkeeping, response),
// calibrated so a single Skylake core lands near the paper's
// single-core baseline.
const cpuMicrobenchCycles = 600

// fig7CPU measures k CPU cores fed from the other NUMA node via shared
// memory, batch size 16 (the paper's throughput-optimal setting).
func fig7CPU(cfg Fig7Config, cores int, nvm bool) float64 {
	m := core.NewMachine(core.MachineConfig{Name: "srv", Cores: cores, WithNVM: nvm})
	kind := memspace.KindDRAM
	if nvm {
		kind = memspace.KindNVM
	}
	rng := sim.NewRNG(cfg.Seed)
	list := buildLinkedList(m.Space, kind, cfg.Nodes, rng)

	const batch = 16
	clients := cores * batch
	perClient := cfg.Requests / clients
	if perClient < 1 {
		perClient = 1
	}
	wrng := sim.NewRNG(cfg.Seed + 1)
	res := sim.ClosedLoop{Clients: clients, PerClient: perClient, Warmup: 2}.Run(
		func(_ int, issue sim.Time) sim.Time {
			start := wrng.Intn(cfg.Nodes)
			_, visited := list.traverse(start)
			return m.CPU.Process(issue, hostcpu.Work{
				Cycles:      cpuMicrobenchCycles,
				Accesses:    3,
				AccessBytes: nodeBytes,
				Addr:        list.addr(visited[0]),
				Batch:       batch,
			})
		})
	return res.Throughput
}

// walkerApp is the RAMBDA APU for the microbenchmark: three dependent
// coherent reads plus a little ALU work.
func walkerApp(list *linkedList) core.App {
	return core.AppFunc(func(ctx *core.AppCtx, now sim.Time, req []byte) ([]byte, sim.Time) {
		idx := int(binary.LittleEndian.Uint64(req))
		t := now
		cur := idx % list.nodes
		var val uint64
		for hop := 0; hop < 3; hop++ {
			t = ctx.Read(t, list.addr(cur), nodeBytes)
			val = list.value(cur)
			cur = list.next(cur)
		}
		t = ctx.Compute(t, 12)
		resp := make([]byte, 8)
		binary.LittleEndian.PutUint64(resp, val)
		return resp, t
	})
}

// fig7Rambda measures the prototype accelerator (optionally with
// spin-polling instead of cpoll), fed intra-machine like the paper's
// microbenchmark.
func fig7Rambda(cfg Fig7Config, notify core.NotifyMode) float64 {
	m := core.NewMachine(core.MachineConfig{Name: "srv", Variant: core.AccelBase})
	rng := sim.NewRNG(cfg.Seed)
	list := buildLinkedList(m.Space, memspace.KindDRAM, cfg.Nodes, rng)

	opts := core.DefaultServerOptions()
	opts.Connections = 16
	opts.RingEntries = cfg.Window * 2
	opts.EntryBytes = 64
	opts.Notify = notify
	s := core.NewServer(m, walkerApp(list), opts)
	clients := make([]*core.LocalClient, opts.Connections)
	for i := range clients {
		clients[i] = core.ConnectLocalClient(s, i)
	}

	total := opts.Connections * cfg.Window
	perClient := cfg.Requests / total
	if perClient < 1 {
		perClient = 1
	}
	wrng := sim.NewRNG(cfg.Seed + 2)
	req := make([]byte, 8)
	res := sim.ClosedLoop{Clients: total, PerClient: perClient, Warmup: 2}.Run(
		func(id int, issue sim.Time) sim.Time {
			binary.LittleEndian.PutUint64(req, uint64(wrng.Intn(cfg.Nodes)))
			_, done := clients[id%opts.Connections].Call(issue, req)
			return done
		})
	return res.Throughput
}

// fig7LocalMem measures the RAMBDA-LD/LH projection: application data
// in accelerator-local memory and requests generated inside the FPGA
// (the paper's U280 emulation methodology, Sec. V).
func fig7LocalMem(cfg Fig7Config, variant core.AccelVariant) float64 {
	m := core.NewMachine(core.MachineConfig{
		Name: "srv", Variant: variant,
		AccelLocalBytes: uint64(cfg.Nodes * nodeBytes),
	})
	rng := sim.NewRNG(cfg.Seed)
	list := buildLinkedList(m.Space, memspace.KindAccelLocal, cfg.Nodes, rng)
	app := walkerApp(list)
	ctx := &core.AppCtx{M: m, A: m.Accel}

	total := 16 * cfg.Window
	perClient := cfg.Requests / total
	if perClient < 1 {
		perClient = 1
	}
	wrng := sim.NewRNG(cfg.Seed + 3)
	req := make([]byte, 8)
	res := sim.ClosedLoop{Clients: total, PerClient: perClient, Warmup: 2}.Run(
		func(_ int, issue sim.Time) sim.Time {
			binary.LittleEndian.PutUint64(req, uint64(wrng.Intn(cfg.Nodes)))
			// In-FPGA request generation: a couple of fabric cycles.
			t := m.Accel.Compute(issue, 2)
			_, done := app.Handle(ctx, t, req)
			return done
		})
	return res.Throughput
}

// fig7NVM measures the NVM side: list and request rings in NVM (the
// rings double as the persistence log, as in RAMBDA-TX), fed
// intra-machine with RDMA-emulating writes per the paper's methodology,
// comparing adaptive DDIO (the RAMBDA default) against DDIO always-on
// ("RAMBDA-DDIO").
func fig7NVM(cfg Fig7Config, alwaysDDIO bool) float64 {
	m := core.NewMachine(core.MachineConfig{
		Name: "srv", Variant: core.AccelBase, WithNVM: true, DDIOEnabled: alwaysDDIO,
	})
	rng := sim.NewRNG(cfg.Seed)
	list := buildLinkedList(m.Space, memspace.KindNVM, cfg.Nodes, rng)

	window := cfg.Window * 4 // deep pipelining so NVM, not latency, binds
	opts := core.DefaultServerOptions()
	opts.Connections = 16
	opts.RingEntries = window * 2
	opts.EntryBytes = 64
	opts.RingKind = memspace.KindNVM
	s := core.NewServer(m, walkerApp(list), opts)
	clients := make([]*core.LocalClient, opts.Connections)
	for i := range clients {
		clients[i] = core.ConnectLocalClient(s, i)
	}

	total := opts.Connections * window
	perClient := cfg.Requests / total
	if perClient < 1 {
		perClient = 1
	}
	wrng := sim.NewRNG(cfg.Seed + 4)
	req := make([]byte, 8)
	res := sim.ClosedLoop{Clients: total, PerClient: perClient, Warmup: 2}.Run(
		func(id int, issue sim.Time) sim.Time {
			binary.LittleEndian.PutUint64(req, uint64(wrng.Intn(cfg.Nodes)))
			_, done := clients[id%opts.Connections].Call(issue, req)
			return done
		})
	return res.Throughput
}

// fig7Plan enumerates the sweep: eleven independent configurations,
// each building its own machine and RNGs. Normalization bases (DRAM
// results to CPU-1, NVM results to RAMBDA-DDIO) are applied by rows()
// after every point has run, so the points stay order-independent.
func fig7Plan(cfg Fig7Config) (func() []Fig7Row, []runner.Job) {
	points := []struct {
		mem, name string
		fn        func() float64
	}{
		{"dram", "CPU-1", func() float64 { return fig7CPU(cfg, 1, false) }},
		{"dram", "CPU-8", func() float64 { return fig7CPU(cfg, 8, false) }},
		{"dram", "CPU-16", func() float64 { return fig7CPU(cfg, 16, false) }},
		{"dram", "RAMBDA-polling", func() float64 { return fig7Rambda(cfg, core.NotifyPolling) }},
		{"dram", "RAMBDA", func() float64 { return fig7Rambda(cfg, core.NotifyCpoll) }},
		{"dram", "RAMBDA-LD", func() float64 { return fig7LocalMem(cfg, core.AccelLD) }},
		{"dram", "RAMBDA-LH", func() float64 { return fig7LocalMem(cfg, core.AccelLH) }},
		{"nvm", "CPU-1", func() float64 { return fig7CPU(cfg, 1, true) }},
		{"nvm", "CPU-8", func() float64 { return fig7CPU(cfg, 8, true) }},
		{"nvm", "RAMBDA-DDIO", func() float64 { return fig7NVM(cfg, true) }},
		{"nvm", "RAMBDA", func() float64 { return fig7NVM(cfg, false) }},
	}
	tputs := make([]float64, len(points))
	jobs := runner.Jobs("fig7", len(points),
		func(i int) string { return points[i].mem + "/" + points[i].name },
		func(i int) { tputs[i] = points[i].fn() })
	rows := func() []Fig7Row {
		base := map[string]float64{}
		for i, p := range points {
			if (p.mem == "dram" && p.name == "CPU-1") || (p.mem == "nvm" && p.name == "RAMBDA-DDIO") {
				base[p.mem] = tputs[i]
			}
		}
		out := make([]Fig7Row, len(points))
		for i, p := range points {
			out[i] = Fig7Row{Mem: p.mem, Config: p.name, Throughput: tputs[i], Normalized: tputs[i] / base[p.mem]}
		}
		return out
	}
	return rows, jobs
}

// Fig7 runs the whole microbenchmark sweep.
func Fig7(cfg Fig7Config) []Fig7Row {
	rows, jobs := fig7Plan(cfg)
	runner.MustRun(0, jobs)
	return rows()
}

func fig7Render(rows []Fig7Row) *Table {
	t := &Table{
		ID:      "fig7",
		Title:   "Microbenchmark throughput (10M-node list walk, scaled)",
		Columns: []string{"mem", "config", "throughput", "normalized"},
		Notes: []string{
			"paper: CPU scales ~linearly; RAMBDA-polling ~= 8 cores; cpoll +~21.6%;",
			"LD/LH +114%~166% over cpoll; NVM: adaptive DDIO ~+20% over DDIO-on",
		},
	}
	for _, r := range rows {
		t.AddRow(r.Mem, r.Config, mops(r.Throughput), f2(r.Normalized))
	}
	return t
}

// Fig7Spec exposes the sweep for a shared pool.
func Fig7Spec(cfg Fig7Config) Spec {
	rows, jobs := fig7Plan(cfg)
	return Spec{ID: "fig7", Jobs: jobs, Table: func() *Table { return fig7Render(rows()) }}
}
