package main

import (
	"fmt"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"time"

	"rambda/internal/core"
	"rambda/internal/kvs"
	"rambda/internal/lsm"
	"rambda/internal/obs"
	"rambda/internal/sim"
)

// servingSpec is one closed-loop traffic mix over the RAMBDA prototype
// (AccelBase): conns connections each keeping window requests
// outstanding, Zipf(0.99) key choice, and the op mix in percent (the
// remainder after gets, updates and scans are inserts of new keys).
type servingSpec struct {
	keys      int
	lsm       bool
	conns     int
	window    int
	getPct    int
	updatePct int
	scanPct   int
	scanLen   int
	// warmup requests fill the modelled caches and the Go-side scratch
	// before the measured window; both counts are fixed, so the
	// measured window's virtual metrics depend on the seed alone.
	warmup   int
	measured int
}

func (s servingSpec) clients() int { return s.conns * s.window }

// The LSM tree is sized like the repository's ycsb experiment: the WAL
// is smaller than the memtable, so sustained writes wrap it and stall
// on synchronous flushes, and level 0 holds two runs, so compactions
// cascade within a measured window.
func lsmConfig() lsm.Config {
	return lsm.Config{
		MemtableBytes: 64 << 10,
		L0Runs:        2,
		SSTableBytes:  2 << 20,
		WALBytes:      48 << 10,
		MaxLevels:     4,
	}
}

// apuCycles is the APU's per-request work (hash unit, (de)serializer,
// FSM transitions), as in the repository's KVS experiments.
const apuCycles = 6

// work is one generated request.
type work struct {
	op      kvs.Op
	key     int
	limit   int
	reverse bool
}

// generator draws the request stream from the seed alone.
type generator struct {
	spec servingSpec
	rng  *sim.RNG
	zipf *sim.Zipf
}

func newGenerator(spec servingSpec, seed uint64) *generator {
	rng := sim.NewRNG(seed)
	return &generator{spec: spec, rng: rng, zipf: sim.NewZipf(rng, uint64(spec.keys), 0.99)}
}

// next draws one request; inserts take the next unused index, live.
func (g *generator) next(live int) work {
	s := g.spec
	p := 0
	if s.getPct < 100 {
		p = g.rng.Intn(100)
	}
	switch {
	case p < s.getPct:
		return work{op: kvs.OpGet, key: int(g.zipf.Next())}
	case p < s.getPct+s.updatePct:
		return work{op: kvs.OpPut, key: int(g.zipf.Next())}
	case p < s.getPct+s.updatePct+s.scanPct:
		return work{op: kvs.OpScan, key: int(g.zipf.Next()), limit: s.scanLen, reverse: g.rng.Intn(4) == 0}
	default:
		return work{op: kvs.OpPut, key: live}
	}
}

// stack is one RAMBDA serving system built from the public
// constructors: server and client machines, the store behind an
// AppFunc, and one client per connection.
type stack struct {
	spec    servingSpec
	server  *core.Machine
	clients []*core.Client
	backend kvs.Backend
	db      *lsm.DB // nil for the hash store
	model   *model
	gen     *generator
	spans   *hostSpans
	ref     *reference // timed after every lap when non-nil

	version  uint64 // last write version handed out
	accesses int64  // trace accesses replayed through AppCtx

	sc       kvs.Scratch
	reqBuf   []byte
	respBuf  []byte
	valBuf   []byte
	keyBuf   []byte
	cliPairs []kvs.ScanPair
}

// newStack builds and preloads a system. tr, when non-nil, is attached
// through ServerOptions.Trace and DB.SetTrace.
func newStack(spec servingSpec, seed uint64, spans *hostSpans, tr *obs.Trace) *stack {
	sm := core.NewMachine(core.MachineConfig{Name: "srv", Variant: core.AccelBase, WithNVM: spec.lsm})
	cm := core.NewMachine(core.MachineConfig{Name: "cli"})
	core.ConnectMachines(sm, cm)
	s := &stack{spec: spec, server: sm, model: newModel(spec.keys), spans: spans}

	if spec.lsm {
		s.db = lsm.Open(sm.Space, sm.Mem, lsmConfig())
		s.backend = s.db
	} else {
		s.backend = kvs.New(sm.Space, kvs.Config{
			Buckets:   spec.keys / 4,
			PoolBytes: uint64(spec.keys) * 160,
			Kind:      sm.DataKind(),
		})
	}
	var trace []kvs.Access
	for i := 0; i < spec.keys; i++ {
		s.keyBuf = appendKey(s.keyBuf[:0], i)
		s.valBuf = appendValue(s.valBuf[:0], i, 0)
		t, err := s.backend.PutInto(trace[:0], s.keyBuf, s.valBuf)
		if err != nil {
			panic(fmt.Sprintf("preload key %d: %v", i, err))
		}
		trace = t
	}
	if s.db != nil {
		s.db.Maintain(0) // preload flushes are free; the measured window starts clean
		s.db.SetTrace(tr)
	}

	opts := core.DefaultServerOptions()
	opts.Connections = spec.conns
	opts.RingEntries = 128
	opts.EntryBytes = 128 + spec.scanLen*(6+keyBytes+valueBytes)
	opts.ResponseBatch = 32
	opts.Trace = tr
	srv := core.NewServer(sm, core.AppFunc(s.handle), opts)
	for i := 0; i < spec.conns; i++ {
		s.clients = append(s.clients, core.ConnectClient(cm, srv, i))
	}
	s.gen = newGenerator(spec, seed)
	return s
}

func (s *stack) applyLayer(op kvs.Op) layer {
	if s.db == nil {
		return layerHash
	}
	switch op {
	case kvs.OpGet:
		return layerLSMGet
	case kvs.OpScan:
		return layerLSMScan
	}
	return layerLSMPut
}

// handle is the APU: decode, compute, apply to the store, replay the
// store's access trace through the coherent datapath, drain LSM
// background work, encode.
func (s *stack) handle(ctx *core.AppCtx, now sim.Time, reqBytes []byte) ([]byte, sim.Time) {
	h := s.spans
	h.push(layerCodec)
	req, err := kvs.DecodeRequest(reqBytes)
	h.pop()
	if err != nil {
		h.push(layerCodec)
		s.respBuf = kvs.AppendResponse(s.respBuf[:0], kvs.Response{Status: kvs.StatusError})
		h.pop()
		return s.respBuf, now
	}
	h.push(layerAppCtx)
	t := ctx.Compute(now, apuCycles)
	h.pop()
	h.push(s.applyLayer(req.Op))
	resp, trace := kvs.ApplyScratch(s.backend, req, &s.sc)
	h.pop()
	h.push(layerAppCtx)
	for _, a := range trace {
		if a.Write {
			// The store already wrote the bytes; writing them back
			// charges the datapath without changing them.
			t = ctx.Write(t, a.Addr, s.server.Space.Slice(a.Addr, a.Bytes))
		} else {
			t = ctx.Read(t, a.Addr, a.Bytes)
		}
	}
	h.pop()
	s.accesses += int64(len(trace))
	if s.db != nil {
		h.push(layerMaintain)
		end, stalled := s.db.Maintain(t)
		h.pop()
		if stalled {
			t = end
		}
	}
	h.push(layerCodec)
	if req.Op == kvs.OpScan {
		s.respBuf = kvs.AppendScanResponse(s.respBuf[:0], resp.Status, s.sc.ScanBuf, s.sc.ScanPairs)
	} else {
		s.respBuf = kvs.AppendResponse(s.respBuf[:0], resp)
	}
	h.pop()
	return s.respBuf, t
}

// window is the outcome of one closed loop of requests.
type window struct {
	requests  int
	failed    int
	scanPairs int64
	start     sim.Time
	end       sim.Time
	latencies []sim.Duration
	firstErr  error
	// laps are host times of consecutive runs of lapRequests requests;
	// refLaps[i], when the stack has a reference, was timed right after
	// laps[i].
	laps        []time.Duration
	refLaps     []time.Duration
	lapRequests int
}

// call issues, validates and times one request; it returns the
// request's completion time.
func (s *stack) call(w *window, id int, issue sim.Time) sim.Time {
	h := s.spans
	h.push(layerGen)
	wk := s.gen.next(s.model.live())
	h.pop()

	req := kvs.Request{Op: wk.op, ScanLimit: wk.limit, Reverse: wk.reverse}
	s.keyBuf = appendKey(s.keyBuf[:0], wk.key)
	req.Key = s.keyBuf
	if wk.op == kvs.OpPut {
		s.version++
		s.valBuf = appendValue(s.valBuf[:0], wk.key, s.version)
		req.Val = s.valBuf
	}
	h.push(layerCodec)
	s.reqBuf = kvs.AppendRequest(s.reqBuf[:0], req)
	h.pop()
	h.push(layerTransport)
	respB, done := s.clients[id%len(s.clients)].Call(issue, s.reqBuf)
	h.pop()

	var err error
	switch wk.op {
	case kvs.OpScan:
		h.push(layerCodec)
		status, buf, pairs, derr := kvs.DecodeScanResponse(respB, s.cliPairs[:0])
		h.pop()
		s.cliPairs = pairs
		switch {
		case derr != nil:
			err = derr
		case status != kvs.StatusOK:
			err = fmt.Errorf("scan from %d: status %d", wk.key, status)
		default:
			err = s.model.checkScan(buf, pairs, wk.key, wk.limit, wk.reverse)
			w.scanPairs += int64(len(pairs))
		}
	default:
		h.push(layerCodec)
		resp, derr := kvs.DecodeResponse(respB)
		h.pop()
		switch {
		case derr != nil:
			err = derr
		case wk.op == kvs.OpGet:
			err = s.model.checkGet(resp, wk.key)
		case resp.Status != kvs.StatusOK:
			err = fmt.Errorf("put key %d: status %d", wk.key, resp.Status)
		case wk.key == s.model.live():
			s.model.versions = append(s.model.versions, s.version)
		default:
			s.model.versions[wk.key] = s.version
		}
	}
	w.requests++
	if err != nil {
		w.failed++
		if w.firstErr == nil {
			w.firstErr = err
		}
	}
	if done < issue {
		done = issue
	}
	w.latencies = append(w.latencies, done-issue)
	return done
}

// lapsPerWindow splits a measured window into equal request counts,
// each timed on the host: their median is robust to the bursts of
// interference a shared machine has.
const lapsPerWindow = 32

// run drives n requests (rounded down to whole rounds of the clients)
// starting at virtual time base, timing a lap every n/lapsPerWindow
// requests.
func (s *stack) run(n int, base sim.Time) *window {
	c := s.spec.clients()
	w := &window{latencies: make([]sim.Duration, 0, n), laps: make([]time.Duration, 0, lapsPerWindow)}
	lapEvery := max(n/lapsPerWindow, 1)
	h := s.spans
	h.push(layerDriver)
	lapStart := time.Now()
	res := sim.ClosedLoop{
		Clients: c, PerClient: n / c,
		Stagger: 40 * sim.Nanosecond, Jitter: 400 * sim.Nanosecond, JitterSeed: s.gen.rng.Uint64(),
	}.Run(func(id int, issue sim.Time) sim.Time {
		h.push(layerGlue)
		done := s.call(w, id, base+issue) - base
		if w.requests%lapEvery == 0 {
			w.laps = append(w.laps, time.Since(lapStart))
			if s.ref != nil {
				h.pause()
				w.refLaps = append(w.refLaps, s.ref.lap())
				h.resume()
			}
			lapStart = time.Now()
		}
		h.pop()
		return done
	})
	h.pop()
	w.lapRequests = lapEvery
	w.start, w.end = base+res.Start, base+res.End
	return w
}

// virt is a measured window's virtual-clock result.
type virt struct {
	GoodputMops float64
	P50us       float64
	P99us       float64
	Samples     int
}

func (w *window) virt() virt {
	lat := append([]sim.Duration(nil), w.latencies...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	us := func(p float64) float64 {
		// Nearest rank: the smallest sample with at least p of the
		// samples at or below it.
		i := int(p*float64(len(lat))+0.999999) - 1
		return float64(lat[max(i, 0)]) / float64(sim.Microsecond)
	}
	span := (w.end - w.start).Seconds()
	return virt{
		GoodputMops: float64(w.requests-w.failed) / span / 1e6,
		P50us:       us(0.50),
		P99us:       us(0.99),
		Samples:     len(lat),
	}
}

// trial is one set-up plus warm-up plus measured window. Raw host
// times exclude the reference laps taken between them.
type trial struct {
	setup     time.Duration
	measured  time.Duration // the measured window
	total     time.Duration // set-up through the end of the measured window
	window    *window
	virt      virt
	attempted int // warm-up and measured requests
	failed    int
	firstErr  error

	// The reported host seconds (see reference.go): scaled by the
	// reference laps next to them when the trial has a reference, raw
	// otherwise; and the median reference lap.
	setupHost float64
	totalHost float64
	lapsHost  []float64
	refLap    time.Duration
	gcCPU     float64
	allocs    uint64

	// Traced trials only.
	self     [numLayers]time.Duration
	accesses int64
	stages   [obs.NumStages]float64
	lsmDelta lsm.Stats
}

var runtimeSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:objects"},
}

func readRuntime() (gcCPU float64, allocs uint64) {
	metrics.Read(runtimeSamples)
	return runtimeSamples[0].Value.Float64(), runtimeSamples[1].Value.Uint64()
}

// runTrial builds a fresh stack and measures it. A traced trial
// attaches the host spans and the virtual-time stage collector. With a
// reference, the trial times it around set-up and after every lap,
// outside every span, so plain and traced laps see the same
// interference from it.
func runTrial(spec servingSpec, seed uint64, traced bool, ref *reference) trial {
	// Return the previous trial's system to the OS first, so every
	// set-up starts from the same heap and peak RSS does not depend on
	// GC timing.
	debug.FreeOSMemory()

	var tr *obs.Trace
	if traced {
		tr = obs.NewTrace()
	}
	var refs []time.Duration
	if ref != nil {
		refs = append(refs, ref.median3())
	}
	spans := newHostSpans(false)
	t0 := time.Now()
	s := newStack(spec, seed, spans, tr)
	setup := time.Since(t0)
	if ref != nil {
		refs = append(refs, ref.median3())
	}

	tw := time.Now()
	warm := s.run(spec.warmup, 0)
	warmup := time.Since(tw)
	var base lsm.Stats
	if s.db != nil {
		base = s.db.Stats()
	}
	accessesBefore := s.accesses
	if tr != nil {
		tr.Reset()
	}
	spans.on = traced
	s.ref = ref
	gc0, al0 := readRuntime()
	t1 := time.Now()
	w := s.run(spec.measured, warm.end)
	measured := time.Since(t1) - sum(w.refLaps)
	gc1, al1 := readRuntime()
	spans.on = false

	r := trial{
		setup:     setup,
		measured:  measured,
		total:     setup + warmup + measured,
		window:    w,
		virt:      w.virt(),
		attempted: warm.requests + w.requests,
		failed:    warm.failed + w.failed,
		firstErr:  warm.firstErr,
		gcCPU:     gc1 - gc0,
		allocs:    al1 - al0,
	}
	if r.firstErr == nil {
		r.firstErr = w.firstErr
	}
	if ref != nil {
		all := append(refs, w.refLaps...)
		r.refLap = medianDuration(all)
		r.setupHost = scale(setup, (refs[0]+refs[1])/2)
		r.totalHost = scale(r.total, mean(all))
		for i, l := range w.laps {
			r.lapsHost = append(r.lapsHost, scale(l, w.refLaps[i]))
		}
	} else {
		r.setupHost, r.totalHost = setup.Seconds(), r.total.Seconds()
		for _, l := range w.laps {
			r.lapsHost = append(r.lapsHost, l.Seconds())
		}
	}
	if traced {
		r.self = spans.self
		r.accesses = s.accesses - accessesBefore
		if total := tr.TotalSelf(); total > 0 {
			for _, st := range obs.Stages() {
				r.stages[st] = float64(tr.StageTotal(st)) / float64(total)
			}
		}
		if s.db != nil {
			now := s.db.Stats()
			r.lsmDelta = lsm.Stats{
				Flushes:     now.Flushes - base.Flushes,
				Compactions: now.Compactions - base.Compactions,
				Stalls:      now.Stalls - base.Stalls,
			}
		}
	}
	return r
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func mean(ds []time.Duration) time.Duration { return sum(ds) / time.Duration(len(ds)) }

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
