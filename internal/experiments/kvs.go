package experiments

import (
	"encoding/binary"
	"errors"
	"fmt"

	"rambda/internal/core"
	"rambda/internal/hostcpu"
	"rambda/internal/kvs"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/power"
	"rambda/internal/runner"
	"rambda/internal/sim"
	"rambda/internal/smartnic"
)

// KVSConfig sizes the Figs. 8-10 key-value store experiments. The
// paper preloads 100M 64 B pairs (~7 GB); the simulated store is scaled
// down with the SmartNIC cache held at the same cache:data ratio
// (512 MB : 7 GB).
type KVSConfig struct {
	Keys        int
	ValueBytes  int
	Connections int
	Batch       int
	Requests    int
	ZipfTheta   float64
	Seed        uint64
}

// DefaultKVSConfig returns the scaled experiment.
func DefaultKVSConfig() KVSConfig {
	return KVSConfig{
		Keys:        1 << 20,
		ValueBytes:  46, // key 18 B + value 46 B = the paper's 64 B pairs
		Connections: 10,
		Batch:       32,
		Requests:    60000,
		ZipfTheta:   0.99,
		Seed:        8,
	}
}

func kvsKey(i int) []byte { return appendKVSKey(nil, i) }

// appendKVSKey appends key i ("user" + 14-digit zero-padded decimal,
// the paper's 18 B keys) onto dst — the allocation-free formatter the
// hot request loops use with a reusable buffer.
func appendKVSKey(dst []byte, i int) []byte {
	dst = append(dst, "user"...)
	var digits [14]byte
	for p := len(digits) - 1; p >= 0; p-- {
		digits[p] = byte('0' + i%10)
		i /= 10
	}
	return append(dst, digits[:]...)
}

// incKVSKey turns key i into key i+1 in place by carrying through its
// decimal digits.
func incKVSKey(key []byte) {
	for p := len(key) - 1; p >= len("user"); p-- {
		if key[p] < '9' {
			key[p]++
			return
		}
		key[p] = '0'
	}
}

// kvsZeroSlab backs the KVS handlers' functional writes: the model
// writes zero bytes over each traced write address (the store already
// placed the real item bytes; the handler's write charge only needs
// *some* data to move). Sharing one read-only slab keeps the steady
// state allocation-free — memspace.Write copies from it and nothing
// may ever write into it.
var kvsZeroSlab [4096]byte

func zeros(n int) []byte {
	if n <= len(kvsZeroSlab) {
		return kvsZeroSlab[:n]
	}
	return make([]byte, n)
}

// kvsWorkload generates the request stream: uniform or Zipf-skewed key
// choice, GET-only or 50/50 GET/PUT.
type kvsWorkload struct {
	cfg     KVSConfig
	rng     *sim.RNG
	zipf    *sim.Zipf
	skewed  bool
	writes  bool
	valBase []byte
	// keyBuf backs the generated request's key; each next() overwrites
	// it, so a request is only valid until the following next().
	keyBuf []byte
}

func newKVSWorkload(cfg KVSConfig, skewed, writes bool) *kvsWorkload {
	rng := sim.NewRNG(cfg.Seed + 0x17)
	w := &kvsWorkload{
		cfg: cfg, rng: rng, skewed: skewed, writes: writes,
		valBase: make([]byte, cfg.ValueBytes),
	}
	if skewed {
		w.zipf = sim.NewZipf(rng, uint64(cfg.Keys), cfg.ZipfTheta)
	}
	return w
}

func (w *kvsWorkload) next() kvs.Request {
	var k int
	if w.skewed {
		k = int(w.zipf.Next())
	} else {
		k = w.rng.Intn(w.cfg.Keys)
	}
	w.keyBuf = appendKVSKey(w.keyBuf[:0], k)
	if w.writes && w.rng.Intn(2) == 0 {
		binary.LittleEndian.PutUint64(w.valBase, uint64(k))
		return kvs.Request{Op: kvs.OpPut, Key: w.keyBuf, Val: w.valBase}
	}
	return kvs.Request{Op: kvs.OpGet, Key: w.keyBuf}
}

// preloadStore fills a store with the experiment's pairs: key i is
// kvsKey(i) with an 8-byte little-endian i at the head of its value.
//
// Every point of a sweep preloads the same pairs at the same addresses,
// so the sweep's first preload of each (Keys, ValueBytes) records its
// store as a kvs.Image in the sweep's shared table and later ones replay
// it, which is byte-identical to the fresh load and skips its per-key
// bucket probes. The region kind is not part of the key because it does
// not change a byte of the store. A space that would place the store
// elsewhere gets the fresh load.
func preloadStore(space *memspace.Space, kind memspace.Kind, cfg KVSConfig, sh *shared) *kvs.Store {
	val := make([]byte, cfg.ValueBytes)
	var key []byte
	last := -1
	fill := func(i int) ([]byte, []byte) {
		binary.LittleEndian.PutUint64(val, uint64(i))
		if i == last+1 && key != nil {
			incKVSKey(key) // loads fill in key order
		} else {
			key = appendKVSKey(key[:0], i)
		}
		last = i
		return key, val
	}
	// The job that builds the image keeps the store it built.
	var fresh *kvs.Store
	img := sharedGet(sh, storeImageKey{cfg.Keys, cfg.ValueBytes}, func() *kvs.Image {
		fresh = freshStore(space, kind, cfg, fill)
		img, err := fresh.Image()
		if err != nil {
			panic(err)
		}
		return img
	})
	if fresh != nil {
		return fresh
	}
	store, err := kvs.FromImage(space, kind, img, fill)
	if err == nil {
		return store
	}
	if !errors.Is(err, kvs.ErrImageLayout) {
		panic(err)
	}
	return freshStore(space, kind, cfg, fill)
}

// storeImageKey names a preload image in the shared table.
type storeImageKey struct{ keys, valueBytes int }

// freshStore builds the preloaded store with one PutInto per pair.
func freshStore(space *memspace.Space, kind memspace.Kind, cfg KVSConfig,
	fill func(i int) ([]byte, []byte)) *kvs.Store {
	store := kvs.New(space, kvs.Config{
		Buckets:   cfg.Keys / 4,
		PoolBytes: uint64(cfg.Keys) * 160,
		Kind:      kind,
	})
	var trace []kvs.Access
	for i := 0; i < cfg.Keys; i++ {
		key, val := fill(i)
		t, err := store.PutInto(trace[:0], key, val)
		if err != nil {
			panic(err)
		}
		trace = t
	}
	return store
}

// --- RAMBDA KVS (Sec. IV-A) ---

// kvsAPUCycles is the APU's per-request processing (hash unit,
// (de)serializer, FSM transitions).
const kvsAPUCycles = 6

type rambdaKVS struct {
	clients []*core.Client
	n       int

	// Per-system request-path scratch (each sweep point drives its
	// system from one goroutine): the store's value/trace scratch plus
	// reusable encode buffers for the wire request and response.
	sc      kvs.Scratch
	reqBuf  []byte
	respBuf []byte
}

func newRambdaKVS(cfg KVSConfig, variant core.AccelVariant, batch int, sh *shared) *rambdaKVS {
	return newRambdaKVSObs(cfg, variant, batch, nil, nil, sh)
}

// newRambdaKVSObs is newRambdaKVS with an observability collector
// attached (the breakdown experiment); tr/reg nil is the regular
// uninstrumented fast path.
func newRambdaKVSObs(cfg KVSConfig, variant core.AccelVariant, batch int,
	tr *obs.Trace, reg *obs.Registry, sh *shared) *rambdaKVS {
	sm := core.NewMachine(core.MachineConfig{Name: "srv", Variant: variant})
	cm := core.NewMachine(core.MachineConfig{Name: "cli"})
	core.ConnectMachines(sm, cm)
	kind := sm.DataKind()
	store := preloadStore(sm.Space, kind, cfg, sh)
	if reg != nil {
		store.RegisterMetrics(reg, "kvs")
	}
	r := &rambdaKVS{n: cfg.Connections}

	app := core.AppFunc(func(ctx *core.AppCtx, now sim.Time, reqBytes []byte) ([]byte, sim.Time) {
		req, err := kvs.DecodeRequest(reqBytes)
		if err != nil {
			panic(err)
		}
		t := ctx.Compute(now, kvsAPUCycles)
		resp, trace := kvs.ApplyScratch(store, req, &r.sc)
		for _, a := range trace {
			if a.Write {
				t = ctx.Write(t, a.Addr, zeros(a.Bytes))
			} else {
				t = ctx.Read(t, a.Addr, a.Bytes)
			}
		}
		r.respBuf = kvs.AppendResponse(r.respBuf[:0], resp)
		return r.respBuf, t
	})

	opts := core.DefaultServerOptions()
	opts.Connections = cfg.Connections
	opts.RingEntries = cfg.Batch * 4
	opts.EntryBytes = 128
	opts.ResponseBatch = batch
	opts.Trace = tr
	opts.Metrics = reg
	s := core.NewServer(sm, app, opts)
	for i := 0; i < cfg.Connections; i++ {
		r.clients = append(r.clients, core.ConnectClient(cm, s, i))
	}
	return r
}

// callOn routes to a specific connection.
func (r *rambdaKVS) callOn(id int, now sim.Time, req kvs.Request) (kvs.Response, sim.Time) {
	r.reqBuf = kvs.AppendRequest(r.reqBuf[:0], req)
	respB, done := r.clients[id%r.n].Call(now, r.reqBuf)
	resp, err := kvs.DecodeResponse(respB)
	if err != nil {
		panic(err)
	}
	return resp, done
}

// --- CPU KVS (MICA-backed two-sided RDMA RPC) ---

// cpuKVSCycles is the per-request instruction path of the optimized
// MICA server (hashing, probing, response marshalling).
const cpuKVSCycles = 900

type cpuKVS struct {
	clients []*core.CPUClient
	n       int

	// Per-system request-path scratch, same discipline as rambdaKVS.
	sc      kvs.Scratch
	reqBuf  []byte
	respBuf []byte
}

func newCPUKVS(cfg KVSConfig, batch int, jitter bool, sh *shared) *cpuKVS {
	sm := core.NewMachine(core.MachineConfig{Name: "srv", Cores: 10}) // paper: ten server threads
	cm := core.NewMachine(core.MachineConfig{Name: "cli"})
	core.ConnectMachines(sm, cm)
	store := preloadStore(sm.Space, memspace.KindDRAM, cfg, sh)
	c := &cpuKVS{n: cfg.Connections}

	h := core.CPUHandler(func(reqBytes []byte) ([]byte, hostcpu.Work) {
		req, err := kvs.DecodeRequest(reqBytes)
		if err != nil {
			panic(err)
		}
		resp, trace := kvs.ApplyScratch(store, req, &c.sc)
		addr := store.IndexRange().Base
		if len(trace) > 0 {
			addr = trace[0].Addr
		}
		c.respBuf = kvs.AppendResponse(c.respBuf[:0], resp)
		return c.respBuf, hostcpu.Work{
			Cycles:      cpuKVSCycles,
			Accesses:    len(trace),
			AccessBytes: 64,
			Addr:        addr,
		}
	})
	opts := core.DefaultCPUServerOptions()
	opts.Connections = cfg.Connections
	opts.RingEntries = cfg.Batch * 4
	opts.EntryBytes = 128
	opts.Batch = batch
	if jitter {
		opts.JitterProb = 0.03
		opts.JitterCycles = 9000 // ~4.5us scheduling hiccup
		opts.JitterSeed = cfg.Seed
	}
	s := core.NewCPUServer(sm, h, opts)
	for i := 0; i < cfg.Connections; i++ {
		c.clients = append(c.clients, core.ConnectCPUClient(cm, s, i))
	}
	return c
}

func (c *cpuKVS) callOn(id int, now sim.Time, req kvs.Request) (kvs.Response, sim.Time) {
	c.reqBuf = kvs.AppendRequest(c.reqBuf[:0], req)
	respB, done := c.clients[id%c.n].Call(now, c.reqBuf)
	resp, err := kvs.DecodeResponse(respB)
	if err != nil {
		panic(err)
	}
	return resp, done
}

// --- SmartNIC KVS (KV-Direct/StRoM emulated on ARM cores) ---

// snicKVS serves requests on the SmartNIC's ARM cores with a 512 MB
// (scaled) on-board cache; misses fetch from host memory over PCIe.
type snicKVS struct {
	cfg   KVSConfig
	snic  *smartnic.SmartNIC
	cache *smartnic.LRUCache
	store *kvs.Store
	net   sim.Duration // client<->NIC one-way

	// sc is the store's per-system value/trace scratch; cache inserts
	// must NOT alias it (they copy), since it is overwritten per request.
	sc kvs.Scratch
}

// snicARMCycles is the per-request ARM processing, calibrated so eight
// ARM cores on all-local data match six Intel cores (Sec. VI-B).
const snicARMCycles = 2200

// newSNICKVS builds the SmartNIC baseline: ARM cores pipeline through
// the eight-core pool; request batching has no further effect on the
// dependent host-access chain.
func newSNICKVS(cfg KVSConfig, sh *shared) *snicKVS {
	space := memspace.New()
	store := preloadStore(space, memspace.KindDRAM, cfg, sh)
	nic := smartnic.New(smartnic.DefaultConfig("bf2"), newHostMem(space))
	// Cache : data ratio follows the paper (512MB : 7GB ~= 1:14).
	dataBytes := int64(cfg.Keys) * 160
	s := &snicKVS{
		cfg:   cfg,
		snic:  nic,
		cache: smartnic.NewLRUCache(dataBytes / 14),
		store: store,
		net:   core.NetOneWay,
	}
	// Warm the cache with the hottest keys (the generator's Zipf ranks
	// low indices hottest), standing in for a long-running server whose
	// cache reached steady state.
	var key []byte
	var trace []kvs.Access
	for i := 0; i < cfg.Keys; i++ {
		key = appendKVSKey(key[:0], i)
		// Fresh value allocation per iteration (dst nil): the cache
		// retains it. Only the trace scratch is reused.
		v, t, ok := store.GetInto(nil, trace[:0], key)
		trace = t
		if !ok {
			panic("snic prewarm: missing key")
		}
		before := s.cache.Len()
		s.cache.PutBytes(key, v)
		if s.cache.Len() == before {
			break // capacity reached
		}
	}
	return s
}

func (s *snicKVS) callOn(_ int, now sim.Time, req kvs.Request) (kvs.Response, sim.Time) {
	// Request arrives at the NIC (no host PCIe on the network path).
	arrive := now + s.net

	// Walk the processing chain: ARM instruction path, then the KVS
	// accesses — on-board DRAM for cache hits, one-sided RDMA over the
	// PCIe link for misses. The accesses are a dependent chain, so the
	// core is blocked for the whole walk (the mechanism behind Fig. 1
	// and the SmartNIC's distribution sensitivity in Fig. 8).
	t := arrive + sim.Duration(float64(snicARMCycles)/s.snic.Config().ClockHz*float64(sim.Second))
	var resp kvs.Response
	switch req.Op {
	case kvs.OpGet:
		if v, ok := s.cache.GetBytes(req.Key); ok {
			for i := 0; i < 3; i++ {
				t = s.snic.LocalAccess(t, 64)
			}
			resp = kvs.Response{Status: kvs.StatusOK, Val: v}
		} else {
			r, trace := kvs.ApplyScratch(s.store, req, &s.sc)
			for range trace {
				t = s.snic.HostAccess(t, 64, 1)
			}
			resp = r
			if r.Status == kvs.StatusOK {
				// The cache retains the value: copy it out of the scratch.
				s.cache.PutBytes(req.Key, append([]byte(nil), r.Val...))
			}
		}
	case kvs.OpPut:
		// Writes go to the host copy; the cached entry is refreshed.
		r, trace := kvs.ApplyScratch(s.store, req, &s.sc)
		for range trace {
			t = s.snic.HostAccess(t, 64, 1)
		}
		s.cache.PutBytes(req.Key, append([]byte(nil), req.Val...))
		resp = r
	default:
		resp = kvs.Response{Status: kvs.StatusError}
	}
	// The core was occupied for the whole walk; queue behind the eight
	// ARM cores.
	_, end := s.snic.Cores().Occupy(arrive, t-arrive)
	return resp, end + s.net
}

// Fig8Row is one bar of Fig. 8.
type Fig8Row struct {
	System     string
	Dist       string // uniform | zipf
	Workload   string // get | mixed
	Throughput float64
}

type kvsCaller interface {
	callOn(id int, now sim.Time, req kvs.Request) (kvs.Response, sim.Time)
}

// kvsWork is one pipelined request slot: the generator's key/value are
// copied in (next() reuses its own buffers per call), so a slot stays
// valid for the one request that consumes it.
type kvsWork struct {
	op  kvs.Op
	key []byte
	val []byte
}

func measureKVS(cfg KVSConfig, sys kvsCaller, skewed, writes bool, window int) *sim.Result {
	w := newKVSWorkload(cfg, skewed, writes)
	total := cfg.Connections * window
	perClient := cfg.Requests / total
	if perClient < 1 {
		perClient = 1
	}
	// The key stream is timing-independent (request k is consumed by the
	// k-th request in walk order), so the generator runs ahead of the
	// timing walk through the pipeline's slot ring.
	stream := sim.NewPipeline(total*perClient, 64, 16, func(_ int, wk *kvsWork) {
		req := w.next()
		wk.op = req.Op
		wk.key = append(wk.key[:0], req.Key...)
		if req.Op == kvs.OpPut {
			wk.val = append(wk.val[:0], req.Val...)
		}
	})
	defer stream.Close()
	return sim.ClosedLoop{Clients: total, PerClient: perClient, Warmup: 2, Stagger: 40 * sim.Nanosecond, Jitter: 400 * sim.Nanosecond, JitterSeed: cfg.Seed}.Run(
		func(id int, issue sim.Time) sim.Time {
			wk := stream.Next()
			req := kvs.Request{Op: wk.op, Key: wk.key}
			if wk.op == kvs.OpPut {
				req.Val = wk.val
			}
			resp, done := sys.callOn(id, issue, req)
			if resp.Status == kvs.StatusError {
				panic("kvs experiment: server error")
			}
			return done
		})
}

// kvsPoint is one distinct KVS operating point: a system built with a
// response batch, driven by a client window under a key distribution
// and workload mix. Figs. 8 and 10 and Tab. III revisit some of the
// same points, so the sweep's shared table measures each once.
type kvsPoint struct {
	System string // CPU, SmartNIC, RAMBDA, RAMBDA-LD or RAMBDA-LH
	Jitter bool   // CPU only: the server's scheduling hiccups
	Batch  int
	Window int
	Skewed bool
	Writes bool
	Cfg    KVSConfig
}

// kvsStats is what the tables read from a point's run. It is computed
// inside the shared cell, so sharers never touch the run's histogram.
type kvsStats struct {
	Throughput float64
	Mean, P99  sim.Time
}

// measure runs the point, or returns its stats if another job of the
// sweep already did.
func (p kvsPoint) measure(sh *shared) kvsStats {
	return sharedGet(sh, p, func() kvsStats {
		res := measureKVS(p.Cfg, p.build(sh), p.Skewed, p.Writes, p.Window)
		return kvsStats{Throughput: res.Throughput, Mean: res.Latency.Mean(), P99: res.Latency.P99()}
	})
}

// build makes the point's system fresh and fully isolated (machines,
// store, cache), so one point never observes another's state.
func (p kvsPoint) build(sh *shared) kvsCaller {
	switch p.System {
	case "CPU":
		return newCPUKVS(p.Cfg, p.Batch, p.Jitter, sh)
	case "SmartNIC":
		return newSNICKVS(p.Cfg, sh)
	case "RAMBDA":
		return newRambdaKVS(p.Cfg, core.AccelBase, p.Batch, sh)
	case "RAMBDA-LD":
		return newRambdaKVS(p.Cfg, core.AccelLD, p.Batch, sh)
	case "RAMBDA-LH":
		return newRambdaKVS(p.Cfg, core.AccelLH, p.Batch, sh)
	}
	panic(fmt.Sprintf("experiments: unknown KVS system %q", p.System))
}

// kvsSystems is the Figs. 8-9 system matrix in table order.
var kvsSystems = []string{"CPU", "SmartNIC", "RAMBDA", "RAMBDA-LD", "RAMBDA-LH"}

var kvsDists = []struct {
	name   string
	skewed bool
}{{"uniform", false}, {"zipf", true}}

// fig8Plan enumerates (system x dist x workload) as runner jobs.
func fig8Plan(cfg KVSConfig, sh *shared) ([]Fig8Row, []runner.Job) {
	workloads := []struct {
		name   string
		writes bool
	}{{"get", false}, {"mixed", true}}

	var rows []Fig8Row
	var points []kvsPoint
	for _, s := range kvsSystems {
		for _, dist := range kvsDists {
			for _, wl := range workloads {
				rows = append(rows, Fig8Row{System: s, Dist: dist.name, Workload: wl.name})
				points = append(points, kvsPoint{System: s, Batch: cfg.Batch, Window: cfg.Batch,
					Skewed: dist.skewed, Writes: wl.writes, Cfg: cfg})
			}
		}
	}
	jobs := runner.Jobs("fig8", len(points),
		func(i int) string { return rows[i].System + "/" + rows[i].Dist + "/" + rows[i].Workload },
		func(i int) { rows[i].Throughput = points[i].measure(sh).Throughput })
	return rows, jobs
}

// Fig8 measures peak throughput (batch 32) for every design under both
// distributions and workload mixes.
func Fig8(cfg KVSConfig) []Fig8Row {
	rows, jobs := fig8Plan(cfg, newShared())
	runner.MustRun(0, jobs)
	return rows
}

func fig8Render(rows []Fig8Row) *Table {
	t := &Table{
		ID:      "fig8",
		Title:   "KVS peak throughput, batch 32",
		Columns: []string{"system", "dist", "workload", "throughput"},
		Notes: []string{
			"paper: CPU ~= RAMBDA (network-bound; RAMBDA +2.3-8.3%); SmartNIC uniform ~= 27-29% of its zipf",
		},
	}
	for _, r := range rows {
		t.AddRow(r.System, r.Dist, r.Workload, mops(r.Throughput))
	}
	return t
}

// Fig8Spec exposes the sweep for a shared pool.
func Fig8Spec(cfg KVSConfig) Spec { return fig8Spec(cfg, newShared()) }

func fig8Spec(cfg KVSConfig, sh *shared) Spec {
	rows, jobs := fig8Plan(cfg, sh)
	return Spec{ID: "fig8", Jobs: jobs, Table: func() *Table { return fig8Render(rows) }}
}

// Fig9Row is one latency bar of Fig. 9 (100% GET).
type Fig9Row struct {
	System string
	Dist   string
	Avg    sim.Time
	P99    sim.Time // zero when inapplicable (LD/LH emulation)
}

// fig9Plan enumerates (system x dist) latency points as runner jobs.
// Latency is measured at moderate load so path latency and jitter, not
// closed-loop equilibrium, dominate: window 8, with the CPU server's
// scheduling jitter on. The SmartNIC saturates far below the others;
// its latency is measured at a sustainable load (window 1), like the
// paper's per-system latency runs. LD/LH emulation reports no tail.
func fig9Plan(cfg KVSConfig, sh *shared) ([]Fig9Row, []runner.Job) {
	var rows []Fig9Row
	var points []kvsPoint
	for _, s := range kvsSystems {
		window := 8
		if s == "SmartNIC" {
			window = 1
		}
		for _, dist := range kvsDists {
			rows = append(rows, Fig9Row{System: s, Dist: dist.name})
			points = append(points, kvsPoint{System: s, Jitter: s == "CPU", Batch: cfg.Batch,
				Window: window, Skewed: dist.skewed, Cfg: cfg})
		}
	}
	jobs := runner.Jobs("fig9", len(points),
		func(i int) string { return rows[i].System + "/" + rows[i].Dist },
		func(i int) {
			st := points[i].measure(sh)
			rows[i].Avg = st.Mean
			if s := rows[i].System; s != "RAMBDA-LD" && s != "RAMBDA-LH" {
				rows[i].P99 = st.P99
			}
		})
	return rows, jobs
}

// Fig9 measures average and tail latency under moderate load (100%
// GET, batch 32).
func Fig9(cfg KVSConfig) []Fig9Row {
	rows, jobs := fig9Plan(cfg, newShared())
	runner.MustRun(0, jobs)
	return rows
}

func fig9Render(rows []Fig9Row) *Table {
	t := &Table{
		ID:      "fig9",
		Title:   "KVS latency, 100% GET, batch 32",
		Columns: []string{"system", "dist", "avg", "p99"},
		Notes: []string{
			"paper: RAMBDA avg slightly above CPU (UPI hop); LD below; p99: RAMBDA 30.1% under CPU, 52.0% under SmartNIC",
			"LD/LH tail marked n/a exactly as in the paper (average-only emulation)",
		},
	}
	for _, r := range rows {
		p99 := "n/a"
		if r.P99 != 0 {
			p99 = r.P99.String()
		}
		t.AddRow(r.System, r.Dist, r.Avg.String(), p99)
	}
	return t
}

// Fig9Spec exposes the sweep for a shared pool.
func Fig9Spec(cfg KVSConfig) Spec { return fig9Spec(cfg, newShared()) }

func fig9Spec(cfg KVSConfig, sh *shared) Spec {
	rows, jobs := fig9Plan(cfg, sh)
	return Spec{ID: "fig9", Jobs: jobs, Table: func() *Table { return fig9Render(rows) }}
}

// Fig10Row is one point of the batch sweep.
type Fig10Row struct {
	System     string
	Batch      int
	Throughput float64
	Avg        sim.Time
}

// fig10Plan enumerates the batch sweep as runner jobs. CPU and SmartNIC
// clients pipeline `batch` requests per connection (the batch is their
// window); RAMBDA needs no request batching — its batch knob only
// amortizes response doorbells, and the client window stays at the ring
// depth (paper Sec. VI-B). At batch 32 every system is at its Fig. 8
// zipf GET point.
func fig10Plan(cfg KVSConfig, sh *shared) ([]Fig10Row, []runner.Job) {
	var rows []Fig10Row
	var points []kvsPoint
	for _, s := range []string{"CPU", "SmartNIC", "RAMBDA"} {
		for _, b := range []int{1, 2, 4, 8, 16, 32} {
			window := b
			if s == "RAMBDA" {
				window = cfg.Batch
			}
			rows = append(rows, Fig10Row{System: s, Batch: b})
			points = append(points, kvsPoint{System: s, Batch: b, Window: window, Skewed: true, Cfg: cfg})
		}
	}
	jobs := runner.Jobs("fig10", len(points),
		func(i int) string { return fmt.Sprintf("%s/batch=%d", rows[i].System, rows[i].Batch) },
		func(i int) {
			st := points[i].measure(sh)
			rows[i].Throughput, rows[i].Avg = st.Throughput, st.Mean
		})
	return rows, jobs
}

// Fig10 sweeps the batch size on the Zipf GET workload. The client
// window equals the batch size (HERD clients post batches of B).
func Fig10(cfg KVSConfig) []Fig10Row {
	rows, jobs := fig10Plan(cfg, newShared())
	runner.MustRun(0, jobs)
	return rows
}

func fig10Render(rows []Fig10Row) *Table {
	t := &Table{
		ID:      "fig10",
		Title:   "Batch size impact (100% GET, Zipf)",
		Columns: []string{"system", "batch", "throughput", "avg latency"},
		Notes: []string{
			"paper: batching lifts CPU/SmartNIC ~12x and RAMBDA ~2x; RAMBDA latency grows sub-linearly",
		},
	}
	for _, r := range rows {
		t.AddRow(r.System, fmt.Sprintf("%d", r.Batch), mops(r.Throughput), r.Avg.String())
	}
	return t
}

// Fig10Spec exposes the sweep for a shared pool.
func Fig10Spec(cfg KVSConfig) Spec { return fig10Spec(cfg, newShared()) }

func fig10Spec(cfg KVSConfig, sh *shared) Spec {
	rows, jobs := fig10Plan(cfg, sh)
	return Spec{ID: "fig10", Jobs: jobs, Table: func() *Table { return fig10Render(rows) }}
}

// Tab3Row is one column of Tab. III.
type Tab3Row struct {
	System  string
	Watts   float64
	KopPerW float64
}

// tab3Plan enumerates the three power-efficiency measurements at the
// Fig. 8 uniform-GET operating point.
func tab3Plan(cfg KVSConfig, sh *shared) ([]Tab3Row, []runner.Job) {
	rows := []Tab3Row{
		{System: "CPU", Watts: power.CPUFullLoad},
		{System: "SmartNIC", Watts: power.SmartNICARMs},
		{System: "RAMBDA", Watts: power.RambdaFPGA},
	}
	jobs := runner.Jobs("tab3", len(rows),
		func(i int) string { return rows[i].System },
		func(i int) {
			p := kvsPoint{System: rows[i].System, Batch: cfg.Batch, Window: cfg.Batch, Cfg: cfg}
			rows[i].KopPerW = power.KopsPerWatt(p.measure(sh).Throughput, rows[i].Watts)
		})
	return rows, jobs
}

// Tab3 computes power efficiency at the Fig. 8 uniform-GET operating
// point using the paper's measured component wattages.
func Tab3(cfg KVSConfig) []Tab3Row {
	rows, jobs := tab3Plan(cfg, newShared())
	runner.MustRun(0, jobs)
	return rows
}

func tab3Render(rows []Tab3Row) *Table {
	t := &Table{
		ID:      "tab3",
		Title:   "Power efficiency, GET/uniform (Kop/W)",
		Columns: []string{"system", "watts", "Kop/W"},
		Notes: []string{
			"paper: CPU 130.4, SmartNIC 25.2, RAMBDA 188.7 Kop/W; box-level power -38% with RAMBDA",
			fmt.Sprintf("whole-box reduction (IPMI constants): %.0f%%", power.BoxReduction()*100),
		},
	}
	for _, r := range rows {
		t.AddRow(r.System, f1(r.Watts), f1(r.KopPerW))
	}
	return t
}

// Tab3Spec exposes the sweep for a shared pool.
func Tab3Spec(cfg KVSConfig) Spec { return tab3Spec(cfg, newShared()) }

func tab3Spec(cfg KVSConfig, sh *shared) Spec {
	rows, jobs := tab3Plan(cfg, sh)
	return Spec{ID: "tab3", Jobs: jobs, Table: func() *Table { return tab3Render(rows) }}
}

// clientConnSend and clientConnPoll expose the CPU client's raw
// connection steps for diagnostics and tests.
func clientConnSend(c *core.CPUClient, now sim.Time, req kvs.Request) sim.Time {
	return c.ConnSend(now, kvs.AppendRequest(nil, req))
}

func clientConnPoll(c *core.CPUClient) { c.ConnPoll() }
