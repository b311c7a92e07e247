package experiments

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/obs"
	"rambda/internal/runner"
	"rambda/internal/scaleout"
	"rambda/internal/sim"
)

// The scaleout experiment is not a paper figure: it takes the chainrep
// building block multi-machine, the way Sec. VII sketches RAMBDA pods
// composing into a cluster. A consistent-hash ring partitions the key
// space across N shard chains, clients route through possibly-stale
// shard maps, and per-shard hot-key sketches drive live migrations
// (snapshot copy + catch-up log + atomic map flip) when the Zipf skew
// concentrates load. The sweep reports goodput and tail latency per
// (shards x skew) point alongside the migration counters and the
// per-window load-imbalance ratio before and after rebalancing.

// ScaleoutConfig sizes the sharded-cluster sweep.
type ScaleoutConfig struct {
	// Shards and Thetas span the sweep grid; theta 0 is the uniform
	// distribution, larger is more skewed (YCSB Zipf, item 0 hottest).
	Shards []int
	Thetas []float64
	// Keys is the preloaded key universe; ValueBytes the payload per
	// pair; Requests the measured request count per point; PutPercent
	// the write share of the mix; Frontends the number of client-side
	// routers cycling through the workload.
	Keys       int
	ValueBytes int
	Requests   int
	PutPercent int
	Frontends  int
	Seed       uint64

	// OpenLoopInterval, when > 0, switches the workload from the
	// closed loop (each frontend issues its next request when the
	// previous one completes — the load self-throttles under slowdown)
	// to an open-loop arrival process: every frontend issues a request
	// each interval regardless of completions, the way real datacenter
	// load arrives. Under overload or fault windows the open loop keeps
	// pushing and response times grow with the backlog — the queueing
	// collapse a closed loop structurally cannot show. 0 (the default)
	// keeps the closed loop and its byte-identical output.
	OpenLoopInterval sim.Duration
}

// DefaultScaleoutConfig returns the full-size sweep.
func DefaultScaleoutConfig() ScaleoutConfig {
	return ScaleoutConfig{
		Shards:     []int{2, 4, 8},
		Thetas:     []float64{0, 0.90, 0.99},
		Keys:       1 << 16,
		ValueBytes: 46,
		Requests:   24000,
		PutPercent: 10,
		Frontends:  8,
		Seed:       29,
	}
}

// scaleoutMetricsInterval is the virtual-time ticker period for
// registry samples.
const scaleoutMetricsInterval = 5 * sim.Millisecond

// ScaleoutRow is one (shards, skew) point of the sweep.
type ScaleoutRow struct {
	Shards       int
	Theta        float64
	Goodput      float64 // successful requests/sec of virtual time
	Avg, P99     sim.Time
	Migrations   int64
	MovedKeys    int64
	StaleRetries int64
	ImbFirst     float64 // max/mean shard load, first detection window
	ImbLast      float64 // max/mean shard load, final detection window
}

// scaleoutDist renders a theta as a distribution label.
func scaleoutDist(theta float64) string {
	if theta == 0 {
		return "uniform"
	}
	return fmt.Sprintf("zipf%.2f", theta)
}

// scaleoutCluster maps an experiment point onto a cluster config: the
// chainrep testbed parameters, stores sized for the point's share of
// the key universe (double headroom for ring imbalance plus migrated
// hot keys), and a detection policy of ~12 windows per run.
func scaleoutCluster(cfg ScaleoutConfig, shards int, seed uint64) scaleout.Config {
	ccfg := scaleout.DefaultConfig()
	ccfg.Shards = shards
	ccfg.Seed = seed
	ccfg.SlotsPerShard = 2*cfg.Keys/shards + 1024
	ccfg.RebalanceEvery = cfg.Requests / 12
	ccfg.ImbalanceThreshold = 1.15
	ccfg.HotKeysPerMove = 8
	ccfg.MaxMigrations = 16
	return ccfg
}

// scaleoutPoint preloads one cluster and drives the skewed closed-loop
// workload through rotating frontends. reg may be nil (the fast path);
// when set, the cluster's gauges are sampled on the virtual-time ticker
// so the export shows the imbalance dropping as migrations land.
func scaleoutPoint(cfg ScaleoutConfig, shards int, theta float64, point int,
	reg *obs.Registry) ScaleoutRow {
	seed := runner.Seed("scaleout", point)
	c := scaleout.New(scaleoutCluster(cfg, shards, seed))
	if reg != nil {
		c.RegisterMetrics(reg, "scaleout")
		reg.SetInterval(scaleoutMetricsInterval)
	}

	var key []byte
	val := make([]byte, cfg.ValueBytes)
	now := sim.Time(0)
	for i := 0; i < cfg.Keys; i++ {
		key = appendKVSKey(key[:0], i)
		binary.LittleEndian.PutUint64(val, uint64(i))
		now = c.Preload(now, key, val)
	}
	t0 := now

	wrng := sim.NewRNG(runner.SubSeed(seed, 1))
	var zipf *sim.Zipf
	if theta > 0 {
		zipf = sim.NewZipf(wrng, uint64(cfg.Keys), theta)
	}
	fes := make([]*scaleout.Frontend, cfg.Frontends)
	for i := range fes {
		fes[i] = c.NewFrontend()
	}
	nextKey := func() int {
		if zipf != nil {
			return int(zipf.Next())
		}
		return wrng.Intn(cfg.Keys)
	}
	if cfg.OpenLoopInterval > 0 {
		// Open loop: issue times are fixed by the arrival process (the
		// driver's clock is relative, so completions are rebased to t0);
		// the request sequence still draws from wrng in driver event
		// order, which is deterministic.
		reqIdx := 0
		drv := sim.OpenLoop{
			Clients:  cfg.Frontends,
			PerCli:   cfg.Requests / cfg.Frontends,
			Interval: cfg.OpenLoopInterval,
		}
		res := drv.Run(func(cli int, issue sim.Time) sim.Time {
			i := reqIdx
			reqIdx++
			key = appendKVSKey(key[:0], nextKey())
			fe := fes[cli]
			if wrng.Intn(100) < cfg.PutPercent {
				binary.LittleEndian.PutUint64(val, uint64(i))
				return fe.Put(t0+issue, key, val) - t0
			}
			_, done := fe.Get(t0+issue, key)
			return done - t0
		})
		now = t0 + res.End
	} else {
		for i := 0; i < cfg.Requests; i++ {
			key = appendKVSKey(key[:0], nextKey())
			fe := fes[i%len(fes)]
			if wrng.Intn(100) < cfg.PutPercent {
				binary.LittleEndian.PutUint64(val, uint64(i))
				now = fe.Put(now, key, val)
			} else {
				_, done := fe.Get(now, key)
				now = done
			}
		}
	}
	if reg != nil {
		reg.SnapshotNow(now)
	}

	st := c.Stats()
	hist := c.MergedLatency()
	executed := cfg.Requests
	if cfg.OpenLoopInterval > 0 {
		executed = (cfg.Requests / cfg.Frontends) * cfg.Frontends
	}
	goodput := 0.0
	if now > t0 {
		goodput = float64(executed) / (float64(now-t0) / float64(sim.Second))
	}
	return ScaleoutRow{
		Shards:       shards,
		Theta:        theta,
		Goodput:      goodput,
		Avg:          hist.Mean(),
		P99:          hist.P99(),
		Migrations:   st.Migrations,
		MovedKeys:    st.MovedKeys,
		StaleRetries: st.StaleRetries,
		ImbFirst:     st.FirstImbalance,
		ImbLast:      st.LastImbalance,
	}
}

// scaleoutPlan enumerates the (shards x theta) grid as runner jobs.
func scaleoutPlan(cfg ScaleoutConfig, obsDir string) (func() *Table, []runner.Job) {
	type point struct {
		shards int
		theta  float64
	}
	var points []point
	for _, s := range cfg.Shards {
		for _, th := range cfg.Thetas {
			points = append(points, point{s, th})
		}
	}
	name := func(i int) string {
		return fmt.Sprintf("shards=%d/%s", points[i].shards, scaleoutDist(points[i].theta))
	}
	rows := make([]ScaleoutRow, len(points))
	regs := newPointRegistries(len(points), obsDir)
	jobs := runner.Jobs("scaleout", len(points), name, func(i int) {
		rows[i] = scaleoutPoint(cfg, points[i].shards, points[i].theta, i, regs.at(i))
	})
	return func() *Table {
		regs.export(obsDir, "scaleout", name)
		return scaleoutRender(rows)
	}, jobs
}

func scaleoutRender(rows []ScaleoutRow) *Table {
	t := &Table{
		ID:    "scaleout",
		Title: "Sharded scale-out KVS: consistent hashing + hot-key migration",
		Columns: []string{"shards", "dist", "goodput", "avg", "p99",
			"migrations", "moved", "stale-retries", "imb-first", "imb-last"},
		Notes: []string{
			"imbalance = max/mean requests per shard within a detection window; migration triggers above 1.15",
			"stale retries: requests re-routed after a map refresh; each executes exactly once",
		},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Shards),
			scaleoutDist(r.Theta),
			fmt.Sprintf("%.1f Kops", r.Goodput/1e3),
			usStr(r.Avg),
			usStr(r.P99),
			fmt.Sprintf("%d", r.Migrations),
			fmt.Sprintf("%d", r.MovedKeys),
			fmt.Sprintf("%d", r.StaleRetries),
			f2(r.ImbFirst),
			f2(r.ImbLast),
		)
	}
	return t
}

// ScaleoutSpec exposes the sweep for a shared pool. A non-empty obsDir
// collects every point's metrics registry (imbalance gauge, migration
// counters, per-shard served counts over virtual time) and exports them
// as obsDir/scaleout.metrics.json.
func ScaleoutSpec(cfg ScaleoutConfig, obsDir string) Spec {
	table, jobs := scaleoutPlan(cfg, obsDir)
	return Spec{ID: "scaleout", Jobs: jobs, Table: table}
}
