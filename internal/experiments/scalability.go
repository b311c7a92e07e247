package experiments

import (
	"fmt"

	"rambda/internal/core"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// ScalabilityRow is one point of the connection-count sweep backing the
// paper's Sec. III-F scalability argument: the dedicated buffer pair
// per connection costs little memory (1 GB serves 1K clients on the
// paper's 1 MB rings), the pointer-buffer cpoll region stays tiny, and
// throughput holds as connections grow.
type ScalabilityRow struct {
	Connections   int
	ServerRingsMB float64
	CpollRegionB  uint64
	PaperScaleGB  float64 // the paper's 1 MB-per-ring arithmetic
	Throughput    float64
}

// ScalabilityConfig sizes the sweep.
type ScalabilityConfig struct {
	Sweep       []int
	RingEntries int
	EntryBytes  int
	Requests    int
	Seed        uint64
}

// DefaultScalabilityConfig sweeps 16..1024 connections with scaled
// rings.
func DefaultScalabilityConfig() ScalabilityConfig {
	return ScalabilityConfig{
		Sweep:       []int{16, 64, 256, 1024},
		RingEntries: 32,
		EntryBytes:  64,
		Requests:    30000,
		Seed:        31,
	}
}

// scalabilityPoint measures the echo workload at one connection count
// on a private machine pair.
func scalabilityPoint(cfg ScalabilityConfig, conns int) ScalabilityRow {
	sm := core.NewMachine(core.MachineConfig{Name: "srv", Variant: core.AccelBase})
	cm := core.NewMachine(core.MachineConfig{Name: "cli"})
	core.ConnectMachines(sm, cm)

	app := core.AppFunc(func(ctx *core.AppCtx, now sim.Time, req []byte) ([]byte, sim.Time) {
		return req, ctx.Compute(now, 8)
	})
	opts := core.DefaultServerOptions()
	opts.Connections = conns
	opts.RingEntries = cfg.RingEntries
	opts.EntryBytes = cfg.EntryBytes
	s := core.NewServer(sm, app, opts)
	clients := make([]*core.Client, conns)
	for i := range clients {
		clients[i] = core.ConnectClient(cm, s, i)
	}

	perClient := cfg.Requests / conns
	if perClient < 2 {
		perClient = 2
	}
	res := sim.ClosedLoop{Clients: conns, PerClient: perClient, Warmup: 1,
		Stagger: 40 * sim.Nanosecond}.Run(
		func(id int, issue sim.Time) sim.Time {
			_, done := clients[id%conns].Call(issue, []byte{byte(id), byte(id >> 8)})
			return done
		})

	ringBytes := float64(conns*cfg.RingEntries*cfg.EntryBytes) / (1 << 20)
	return ScalabilityRow{
		Connections:   conns,
		ServerRingsMB: ringBytes,
		CpollRegionB:  s.Checker().Region().Size,
		PaperScaleGB:  float64(conns) / 1024, // 1 MB per 1K-entry ring
		Throughput:    res.Throughput,
	}
}

// scalabilityPlan enumerates the connection sweep as runner jobs.
func scalabilityPlan(cfg ScalabilityConfig) ([]ScalabilityRow, []runner.Job) {
	rows := make([]ScalabilityRow, len(cfg.Sweep))
	jobs := runner.Jobs("scalability", len(cfg.Sweep),
		func(i int) string { return fmt.Sprintf("conns=%d", cfg.Sweep[i]) },
		func(i int) { rows[i] = scalabilityPoint(cfg, cfg.Sweep[i]) })
	return rows, jobs
}

// Scalability measures an echo workload across the sweep.
func Scalability(cfg ScalabilityConfig) []ScalabilityRow {
	rows, jobs := scalabilityPlan(cfg)
	runner.MustRun(0, jobs)
	return rows
}

func scalabilityRender(rows []ScalabilityRow) *Table {
	t := &Table{
		ID:      "scalability",
		Title:   "Connection scaling (Sec. III-F): dedicated rings + pointer-buffer cpoll",
		Columns: []string{"connections", "server rings", "cpoll region", "paper-scale rings", "throughput"},
		Notes: []string{
			"paper: 1K clients need ~1 GB of rings (1 MB each) and sharing does not limit scalability;",
			"the pointer buffer keeps the pinned cpoll region at 4 B per connection",
		},
	}
	for _, r := range rows {
		t.AddRow(
			fmt.Sprintf("%d", r.Connections),
			fmt.Sprintf("%.2f MB", r.ServerRingsMB),
			fmt.Sprintf("%d B", r.CpollRegionB),
			fmt.Sprintf("%.2f GB", r.PaperScaleGB),
			mops(r.Throughput),
		)
	}
	return t
}

// ScalabilitySpec exposes the sweep for a shared pool.
func ScalabilitySpec(cfg ScalabilityConfig) Spec {
	rows, jobs := scalabilityPlan(cfg)
	return Spec{ID: "scalability", Jobs: jobs, Table: func() *Table { return scalabilityRender(rows) }}
}
