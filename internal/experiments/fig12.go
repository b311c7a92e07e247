package experiments

import (
	"fmt"

	"rambda/internal/chainrep"
	"rambda/internal/core"
	"rambda/internal/memspace"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// Fig12Row is one bar group of Fig. 12: end-to-end transaction latency
// for one (system, value size, transaction shape).
type Fig12Row struct {
	System     string
	ValueBytes int
	Shape      string // "(0,1)" or "(4,2)"
	Avg, P99   sim.Time
}

// Fig12Config sizes the chain-replication experiment.
type Fig12Config struct {
	Pairs        int // preloaded key-value pairs
	Transactions int
	Seed         uint64
}

// DefaultFig12Config mirrors the paper's 100K pairs / 100K transactions
// at simulation scale.
func DefaultFig12Config() Fig12Config {
	return Fig12Config{Pairs: 20000, Transactions: 20000, Seed: 12}
}

// fig12NodeConfigs calibrates per-replica processing: the RAMBDA
// accelerator executes concurrency control and the combined log entry
// (with a UPI crossing), the emulated HyperLoop RNIC firmware applies a
// single group-write.
var (
	rambdaNode = chainrep.NodeConfig{
		Name: "rambda", ProcDelay: 320 * sim.Nanosecond, PerTupleDelay: 50 * sim.Nanosecond,
	}
	hyperloopNode = chainrep.NodeConfig{
		Name: "hyperloop", ProcDelay: 250 * sim.Nanosecond,
	}
)

// newFig12Chain builds the emulated two-replica topology of Fig. 11:
// client<->chain over the datacenter link, replicas bridged by the
// client SmartNIC's ARM routing (the paper measures 2-3 us per hop).
func newFig12Chain(cfg Fig12Config, node chainrep.NodeConfig, valueBytes int) *chainrep.Chain {
	c := &chainrep.Chain{
		ClientOneWay: core.NetOneWay + core.PCIeProp,
		HopDelay:     2500 * sim.Nanosecond,
		WireBPS:      core.NetBW,
	}
	logEntry := chainrep.EntrySize(6, valueBytes)
	for i := 0; i < 2; i++ {
		space := memspace.New()
		mem := newHostMem(space)
		mem.LLC.DDIOEnabled = false // adaptive DDIO: NVM log written directly
		n := chainrep.NewNode(space, mem, node,
			uint64(cfg.Pairs)*uint64(valueBytes), 1024, logEntry)
		c.Nodes = append(c.Nodes, n)
	}
	// Preload the data area on every replica.
	val := make([]byte, valueBytes)
	for i := 0; i < cfg.Pairs; i++ {
		for _, n := range c.Nodes {
			n.Store.Write(0, uint32(i)*uint32(valueBytes), val)
		}
	}
	return c
}

// fig12TxScratch builds transactions of one shape into reusable backing
// (one per sweep point; the chain consumes a tx before the next build,
// and the shared zero data buffer is never written by the chain).
type fig12TxScratch struct {
	tx   chainrep.Tx
	used map[uint32]bool
	data []byte
}

func newFig12TxScratch(valueBytes int) *fig12TxScratch {
	return &fig12TxScratch{
		used: make(map[uint32]bool, 8),
		data: make([]byte, valueBytes),
	}
}

// build draws one transaction of the given shape over distinct random
// keys. The returned Tx aliases the scratch and is valid until the next
// build.
func (s *fig12TxScratch) build(rng *sim.RNG, pairs, reads, writes, valueBytes int) chainrep.Tx {
	s.tx.Reads = s.tx.Reads[:0]
	s.tx.Writes = s.tx.Writes[:0]
	clear(s.used)
	pick := func() uint32 {
		for {
			o := uint32(rng.Intn(pairs)) * uint32(valueBytes)
			if !s.used[o] {
				s.used[o] = true
				return o
			}
		}
	}
	for i := 0; i < reads; i++ {
		s.tx.Reads = append(s.tx.Reads, chainrep.ReadOp{Offset: pick(), Len: valueBytes})
	}
	for i := 0; i < writes; i++ {
		s.tx.Writes = append(s.tx.Writes, chainrep.Tuple{Offset: pick(), Data: s.data})
	}
	return s.tx
}

// fig12Point runs one (value size, shape, system) cell: a fresh chain
// and private RNG streams, transactions issued serially from one client
// as the paper does. Routing jitter (the 2-3 us ARM hop) provides the
// tail.
func fig12Point(cfg Fig12Config, node chainrep.NodeConfig, sysName string, reads, writes, valueBytes int) (avg, p99 sim.Time) {
	chain := newFig12Chain(cfg, node, valueBytes)
	rng := sim.NewRNG(cfg.Seed)
	jrng := sim.NewRNG(cfg.Seed + 1)
	hist := sim.NewHistogram(0)
	scratch := newFig12TxScratch(valueBytes)
	rsc := &chainrep.TxScratch{} // reused read buffers: steady-state reads don't allocate
	now := sim.Time(0)
	for i := 0; i < cfg.Transactions; i++ {
		// ARM routing wanders between 2 and 3 us (Sec. VI-C).
		chain.HopDelay = 2*sim.Microsecond + sim.Duration(jrng.Intn(1000))*sim.Nanosecond
		tx := scratch.build(rng, cfg.Pairs, reads, writes, valueBytes)
		var done sim.Time
		if sysName == "RAMBDA" {
			_, d, err := chain.RambdaTxInto(now, tx, rsc)
			if err != nil {
				panic(err)
			}
			done = d
		} else {
			_, done = chain.HyperLoopTxInto(now, tx, rsc)
		}
		hist.Record(done - now)
		now = done // serial client
	}
	return hist.Mean(), hist.P99()
}

// fig12Plan enumerates (value size x shape x system) as runner jobs.
func fig12Plan(cfg Fig12Config) ([]Fig12Row, []runner.Job) {
	shapes := []struct {
		name          string
		reads, writes int
	}{{"(0,1)", 0, 1}, {"(4,2)", 4, 2}}
	systems := []struct {
		name string
		node chainrep.NodeConfig
	}{{"HyperLoop", hyperloopNode}, {"RAMBDA", rambdaNode}}

	type point struct {
		valueBytes    int
		shape         string
		reads, writes int
		system        string
		node          chainrep.NodeConfig
	}
	var points []point
	for _, valueBytes := range []int{64, 1024} {
		for _, shape := range shapes {
			for _, sys := range systems {
				points = append(points, point{valueBytes, shape.name, shape.reads, shape.writes, sys.name, sys.node})
			}
		}
	}
	rows := make([]Fig12Row, len(points))
	jobs := runner.Jobs("fig12", len(points),
		func(i int) string {
			return fmt.Sprintf("%s/%dB/%s", points[i].system, points[i].valueBytes, points[i].shape)
		},
		func(i int) {
			p := points[i]
			avg, p99 := fig12Point(cfg, p.node, p.system, p.reads, p.writes, p.valueBytes)
			rows[i] = Fig12Row{System: p.system, ValueBytes: p.valueBytes, Shape: p.shape, Avg: avg, P99: p99}
		})
	return rows, jobs
}

// Fig12 measures both systems on 64 B and 1024 B values for the
// representative (0,1) and (4,2) transaction shapes.
func Fig12(cfg Fig12Config) []Fig12Row {
	rows, jobs := fig12Plan(cfg)
	runner.MustRun(0, jobs)
	return rows
}

func fig12Render(rows []Fig12Row) *Table {
	t := &Table{
		ID:      "fig12",
		Title:   "Chain-replicated transaction latency (2 replicas, NVM log)",
		Columns: []string{"system", "value", "tx(r,w)", "avg", "p99"},
		Notes: []string{
			"paper: (0,1) parity within ~3%; (4,2): RAMBDA 63.2-66.8% lower avg, 64.5-69.1% lower p99",
		},
	}
	for _, r := range rows {
		t.AddRow(r.System, fmt.Sprintf("%dB", r.ValueBytes), r.Shape, r.Avg.String(), r.P99.String())
	}
	return t
}

// Fig12Spec exposes the sweep for a shared pool.
func Fig12Spec(cfg Fig12Config) Spec {
	rows, jobs := fig12Plan(cfg)
	return Spec{ID: "fig12", Jobs: jobs, Table: func() *Table { return fig12Render(rows) }}
}
