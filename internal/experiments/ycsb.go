package experiments

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/core"
	"rambda/internal/kvs"
	"rambda/internal/lsm"
	"rambda/internal/obs"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// The ycsb experiment is not a paper figure: it opens the scan-heavy
// and mixed-workload scenario family the paper never measured against
// its µs-scale latency bar. YCSB-style mixes A (50/50 read/update), B
// (95/5), C (read-only), and E (95% range scans / 5% inserts) drive the
// RAMBDA serving path over both storage backends behind the kvs.Backend
// API — the MICA-style hash index and the tiered DRAM-memtable →
// NVM-sstable LSM tree — reporting goodput, p50/p99, and the LSM's
// flush/compaction/stall counters so compaction pressure is visible
// next to the latency it causes.

// YCSBConfig sizes the workload-mix × backend sweep.
type YCSBConfig struct {
	// Keys is the preloaded key universe; ValueBytes the payload per
	// pair; ScanLen the pair budget of one OpScan.
	Keys       int
	ValueBytes int
	ScanLen    int

	Connections int
	Batch       int
	Requests    int
	ZipfTheta   float64
	Seed        uint64
}

// DefaultYCSBConfig returns the full-size sweep.
func DefaultYCSBConfig() YCSBConfig {
	return YCSBConfig{
		Keys:        1 << 16,
		ValueBytes:  46,
		ScanLen:     16,
		Connections: 10,
		Batch:       32,
		Requests:    24000,
		ZipfTheta:   0.99,
		Seed:        31,
	}
}

// ycsbWindow is the per-connection pipeline depth: moderate load, so
// path latency and compaction interference, not closed-loop
// equilibrium, dominate the tail.
const ycsbWindow = 8

// ycsbMix is one workload row: percentages must sum to 100.
type ycsbMix struct {
	name    string
	readPct int
	upPct   int
	scanPct int // remainder after scans is inserts (workload E)
}

// ycsbMixes enumerates the YCSB-style rows in table order.
var ycsbMixes = []ycsbMix{
	{"A", 50, 50, 0},
	{"B", 95, 5, 0},
	{"C", 100, 0, 0},
	{"E", 0, 0, 95},
}

// ycsbBackends enumerates the storage engines in table order.
var ycsbBackends = []string{"hash", "lsm"}

// ycsbLSMConfig sizes the tree so the sweep exercises real flush and
// compaction cascades within a run: the WAL is slightly smaller than
// the memtable, so sustained updates wrap it and force synchronous
// (stalling) flushes — the write-stall pressure the E/A rows exist to
// measure — and L0 bounds at 2 runs so compactions cascade.
func ycsbLSMConfig() lsm.Config {
	return lsm.Config{
		MemtableBytes: 64 << 10,
		L0Runs:        2,
		SSTableBytes:  2 << 20,
		WALBytes:      48 << 10,
		MaxLevels:     4,
	}
}

// ycsbServer is one serving system: the RAMBDA machine pair with the
// chosen backend behind the wire protocol. db is nil for the hash
// backend; when set, the handler drains the tree's background work
// after every request (charging compaction to the NVM channels) and
// stalls the request on WAL-wrap flushes.
type ycsbServer struct {
	clients []*core.Client
	n       int
	store   *kvs.Store
	db      *lsm.DB

	// base is the LSM's counter state right after preload, so rows
	// report run-only flush/compaction/stall deltas.
	base lsm.Stats

	sc      kvs.Scratch
	reqBuf  []byte
	respBuf []byte
	// cliPairs is the client-side scan decode scratch.
	cliPairs []kvs.ScanPair
}

// newYCSBServer builds a fresh system for one sweep point. reg nil is
// the uninstrumented fast path.
func newYCSBServer(cfg YCSBConfig, backend string, reg *obs.Registry) *ycsbServer {
	sm := core.NewMachine(core.MachineConfig{Name: "srv", Variant: core.AccelBase, WithNVM: true})
	cm := core.NewMachine(core.MachineConfig{Name: "cli"})
	core.ConnectMachines(sm, cm)
	s := &ycsbServer{n: cfg.Connections}

	var be kvs.Backend
	val := make([]byte, cfg.ValueBytes)
	var key []byte
	switch backend {
	case "hash":
		// Pool sized for the preload plus workload-E inserts.
		s.store = kvs.New(sm.Space, kvs.Config{
			Buckets:   cfg.Keys / 4,
			PoolBytes: uint64(cfg.Keys+cfg.Requests) * 160,
			Kind:      sm.DataKind(),
		})
		var trace []kvs.Access
		for i := 0; i < cfg.Keys; i++ {
			binary.LittleEndian.PutUint64(val, uint64(i))
			key = appendKVSKey(key[:0], i)
			t, err := s.store.PutInto(trace[:0], key, val)
			if err != nil {
				panic(err)
			}
			trace = t
		}
		if reg != nil {
			s.store.RegisterMetrics(reg, "ycsb.hash")
		}
		be = s.store
	case "lsm":
		s.db = lsm.Open(sm.Space, sm.Mem, ycsbLSMConfig())
		var trace []kvs.Access
		for i := 0; i < cfg.Keys; i++ {
			binary.LittleEndian.PutUint64(val, uint64(i))
			key = appendKVSKey(key[:0], i)
			t, err := s.db.PutInto(trace[:0], key, val)
			if err != nil {
				panic(err)
			}
			trace = t
		}
		s.db.Maintain(0) // preload flushes are free; measurement starts clean
		s.base = s.db.Stats()
		if reg != nil {
			s.db.RegisterMetrics(reg, "ycsb.lsm")
		}
		be = s.db
	default:
		panic("ycsb: unknown backend " + backend)
	}

	app := core.AppFunc(func(ctx *core.AppCtx, now sim.Time, reqBytes []byte) ([]byte, sim.Time) {
		req, err := kvs.DecodeRequest(reqBytes)
		if err != nil {
			panic(err)
		}
		t := ctx.Compute(now, kvsAPUCycles)
		resp, trace := kvs.ApplyScratch(be, req, &s.sc)
		for _, a := range trace {
			if a.Write {
				t = ctx.Write(t, a.Addr, zeros(a.Bytes))
			} else {
				t = ctx.Read(t, a.Addr, a.Bytes)
			}
		}
		if s.db != nil {
			// Background flush/compaction streams into NVM from t on;
			// a WAL-wrap flush stalls this request until durable.
			end, stalled := s.db.Maintain(t)
			if stalled {
				t = end
			}
		}
		if req.Op == kvs.OpScan {
			s.respBuf = kvs.AppendScanResponse(s.respBuf[:0], resp.Status, s.sc.ScanBuf, s.sc.ScanPairs)
		} else {
			s.respBuf = kvs.AppendResponse(s.respBuf[:0], resp)
		}
		return s.respBuf, t
	})

	opts := core.DefaultServerOptions()
	opts.Connections = cfg.Connections
	opts.RingEntries = cfg.Batch * 4
	// Scan responses carry up to ScanLen pairs; size ring entries for
	// the largest frame.
	opts.EntryBytes = 128 + cfg.ScanLen*(6+18+cfg.ValueBytes)
	opts.ResponseBatch = cfg.Batch
	s2 := core.NewServer(sm, app, opts)
	for i := 0; i < cfg.Connections; i++ {
		s.clients = append(s.clients, core.ConnectClient(cm, s2, i))
	}
	return s
}

// callOn routes to a specific connection, decoding by request shape.
func (s *ycsbServer) callOn(id int, now sim.Time, req kvs.Request) sim.Time {
	s.reqBuf = kvs.AppendRequest(s.reqBuf[:0], req)
	respB, done := s.clients[id%s.n].Call(now, s.reqBuf)
	if req.Op == kvs.OpScan {
		status, _, pairs, err := kvs.DecodeScanResponse(respB, s.cliPairs[:0])
		s.cliPairs = pairs
		if err != nil || status == kvs.StatusError {
			panic(fmt.Sprintf("ycsb: scan response status=%d err=%v", status, err))
		}
		return done
	}
	resp, err := kvs.DecodeResponse(respB)
	if err != nil || resp.Status == kvs.StatusError {
		panic(fmt.Sprintf("ycsb: response status=%d err=%v", resp.Status, err))
	}
	return done
}

// ycsbWork is one pipelined request slot (generator buffers are copied
// in, so a slot stays valid for the request that consumes it).
type ycsbWork struct {
	op      kvs.Op
	key     []byte
	val     []byte
	limit   int
	reverse bool
}

// measureYCSB drives one (mix, backend) point through the closed loop.
// The request stream is generated in index order through a sim.Pipeline
// so output is byte-identical at any -sim-parallel.
func measureYCSB(cfg YCSBConfig, srv *ycsbServer, mix ycsbMix, seed uint64) *sim.Result {
	rng := sim.NewRNG(runner.SubSeed(seed, 1))
	zipf := sim.NewZipf(rng, uint64(cfg.Keys), cfg.ZipfTheta)
	insertNext := cfg.Keys
	valBase := make([]byte, cfg.ValueBytes)

	total := cfg.Connections * ycsbWindow
	perClient := cfg.Requests / total
	if perClient < 1 {
		perClient = 1
	}
	stream := sim.NewPipeline(total*perClient, 64, 16, func(_ int, wk *ycsbWork) {
		p := rng.Intn(100)
		switch {
		case p < mix.readPct:
			wk.op = kvs.OpGet
			wk.key = appendKVSKey(wk.key[:0], int(zipf.Next()))
		case p < mix.readPct+mix.upPct:
			wk.op = kvs.OpPut
			k := int(zipf.Next())
			wk.key = appendKVSKey(wk.key[:0], k)
			binary.LittleEndian.PutUint64(valBase, uint64(k))
			wk.val = append(wk.val[:0], valBase...)
		case p < mix.readPct+mix.upPct+mix.scanPct:
			wk.op = kvs.OpScan
			wk.key = appendKVSKey(wk.key[:0], int(zipf.Next()))
			wk.limit = cfg.ScanLen
			wk.reverse = rng.Intn(4) == 0
		default: // workload E's inserts grow the keyspace
			wk.op = kvs.OpPut
			k := insertNext
			insertNext++
			wk.key = appendKVSKey(wk.key[:0], k)
			binary.LittleEndian.PutUint64(valBase, uint64(k))
			wk.val = append(wk.val[:0], valBase...)
		}
	})
	defer stream.Close()
	return sim.ClosedLoop{
		Clients: total, PerClient: perClient, Warmup: 2,
		Stagger: 40 * sim.Nanosecond, Jitter: 400 * sim.Nanosecond, JitterSeed: seed,
	}.Run(func(id int, issue sim.Time) sim.Time {
		wk := stream.Next()
		req := kvs.Request{Op: wk.op, Key: wk.key}
		switch wk.op {
		case kvs.OpPut:
			req.Val = wk.val
		case kvs.OpScan:
			req.ScanLimit = wk.limit
			req.Reverse = wk.reverse
		}
		return srv.callOn(id, issue, req)
	})
}

// YCSBRow is one (workload, backend) point.
type YCSBRow struct {
	Workload string
	Backend  string
	Goodput  float64
	P50, P99 sim.Time
	// LSM health over the measured run (preload excluded; zero for
	// hash).
	Flushes, Compactions, Stalls int64
}

// ycsbPoint runs one sweep point on a fresh system.
func ycsbPoint(cfg YCSBConfig, mix ycsbMix, backend string, point int, reg *obs.Registry) YCSBRow {
	seed := runner.Seed("ycsb", point)
	srv := newYCSBServer(cfg, backend, reg)
	res := measureYCSB(cfg, srv, mix, seed)
	row := YCSBRow{
		Workload: mix.name,
		Backend:  backend,
		Goodput:  res.Throughput,
		P50:      res.Latency.P50(),
		P99:      res.Latency.P99(),
	}
	if srv.db != nil {
		st := srv.db.Stats()
		row.Flushes = st.Flushes - srv.base.Flushes
		row.Compactions = st.Compactions - srv.base.Compactions
		row.Stalls = st.Stalls - srv.base.Stalls
	}
	if reg != nil {
		reg.SnapshotNow(res.End)
	}
	return row
}

// ycsbPlan enumerates (mix × backend) as runner jobs.
func ycsbPlan(cfg YCSBConfig, obsDir string) (func() *Table, []runner.Job) {
	type point struct {
		mix     ycsbMix
		backend string
	}
	var points []point
	for _, m := range ycsbMixes {
		for _, b := range ycsbBackends {
			points = append(points, point{m, b})
		}
	}
	name := func(i int) string { return points[i].mix.name + "/" + points[i].backend }
	rows := make([]YCSBRow, len(points))
	regs := newPointRegistries(len(points), obsDir)
	jobs := runner.Jobs("ycsb", len(points), name, func(i int) {
		rows[i] = ycsbPoint(cfg, points[i].mix, points[i].backend, i, regs.at(i))
	})
	return func() *Table {
		regs.export(obsDir, "ycsb", name)
		return ycsbRender(rows)
	}, jobs
}

func ycsbRender(rows []YCSBRow) *Table {
	t := &Table{
		ID:    "ycsb",
		Title: "YCSB-style mixes x storage backend (hash vs tiered LSM)",
		Columns: []string{"workload", "backend", "goodput", "p50", "p99",
			"flushes", "compactions", "stalls"},
		Notes: []string{
			"A=50/50 read/update, B=95/5, C=read-only, E=95% scans (limit 16) / 5% inserts",
			"lsm: flush+compaction charged to NVM write bandwidth after each request; stalls = WAL-wrap write stalls",
			"hash scans are bucket-order cursors (no key order); lsm scans are key-ordered merged iterators",
		},
	}
	na := func(backend string, v int64) string {
		if backend == "hash" {
			return "n/a"
		}
		return fmt.Sprintf("%d", v)
	}
	for _, r := range rows {
		t.AddRow(
			r.Workload, r.Backend,
			fmt.Sprintf("%.1f Kops", r.Goodput/1e3),
			usStr(r.P50), usStr(r.P99),
			na(r.Backend, r.Flushes), na(r.Backend, r.Compactions), na(r.Backend, r.Stalls),
		)
	}
	return t
}

// YCSBSpec exposes the sweep for a shared pool. A non-empty obsDir
// collects every point's backend metrics registry (memtable/run gauges,
// flush/compaction/stall counters, hash hit rates) and exports them as
// obsDir/ycsb.metrics.json.
func YCSBSpec(cfg YCSBConfig, obsDir string) Spec {
	table, jobs := ycsbPlan(cfg, obsDir)
	return Spec{ID: "ycsb", Jobs: jobs, Table: table}
}
