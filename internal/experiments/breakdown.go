package experiments

import (
	"encoding/binary"
	"fmt"

	"rambda/internal/core"
	"rambda/internal/memspace"
	"rambda/internal/obs"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

// BreakdownConfig sizes the per-stage latency-breakdown experiment: it
// re-runs the fig7 microbenchmark path and the fig8 KVS path with the
// observability collector attached and reports where each request's
// virtual time goes (NIC / wire / ring / notify / compute / memory).
type BreakdownConfig struct {
	Requests int
	Seed     uint64
}

// DefaultBreakdownConfig returns the standalone experiment size.
func DefaultBreakdownConfig() BreakdownConfig {
	return BreakdownConfig{Requests: 8000, Seed: 21}
}

// breakdownMetricsInterval is the virtual-time ticker period for
// registry samples.
const breakdownMetricsInterval = 50 * sim.Microsecond

// breakdownMicrobench drives the fig7 RAMBDA-cpoll configuration (the
// intra-machine list walk) serially with the collector attached.
func breakdownMicrobench(cfg BreakdownConfig, tr *obs.Trace, reg *obs.Registry, _ *shared) {
	m := core.NewMachine(core.MachineConfig{Name: "srv", Variant: core.AccelBase})
	rng := sim.NewRNG(cfg.Seed)
	const nodes = 1 << 18
	list := buildLinkedList(m.Space, memspace.KindDRAM, nodes, rng)

	opts := core.DefaultServerOptions()
	opts.Connections = 16
	opts.RingEntries = 32
	opts.EntryBytes = 64
	opts.Trace = tr
	opts.Metrics = reg
	s := core.NewServer(m, walkerApp(list), opts)
	clients := make([]*core.LocalClient, opts.Connections)
	for i := range clients {
		clients[i] = core.ConnectLocalClient(s, i)
	}
	reg.SetInterval(breakdownMetricsInterval)

	wrng := sim.NewRNG(cfg.Seed + 2)
	req := make([]byte, 8)
	now := sim.Time(0)
	for i := 0; i < cfg.Requests; i++ {
		binary.LittleEndian.PutUint64(req, uint64(wrng.Intn(nodes)))
		_, done := clients[i%opts.Connections].Call(now, req)
		now = done
	}
	reg.SnapshotNow(now)
}

// breakdownKVS drives the fig8 RAMBDA KVS (remote clients over RDMA)
// serially with the collector attached, GET-only uniform keys. Its
// store comes from the sweep's quick KVS preload image.
func breakdownKVS(cfg BreakdownConfig, tr *obs.Trace, reg *obs.Registry, sh *shared) {
	k := DefaultKVSConfig()
	k.Keys = 1 << 18
	k.Requests = cfg.Requests
	k.Seed = cfg.Seed
	r := newRambdaKVSObs(k, core.AccelBase, 1, tr, reg, sh)
	reg.SetInterval(breakdownMetricsInterval)

	w := newKVSWorkload(k, false, false)
	now := sim.Time(0)
	for i := 0; i < cfg.Requests; i++ {
		_, done := r.callOn(i, now, w.next())
		now = done
	}
	reg.SnapshotNow(now)
}

// breakdownPaths enumerates the instrumented request paths.
var breakdownPaths = []struct {
	name string
	run  func(BreakdownConfig, *obs.Trace, *obs.Registry, *shared)
}{
	{"fig7/RAMBDA", breakdownMicrobench},
	{"fig8/RAMBDA", breakdownKVS},
}

func breakdownRender(obsDir string, traces []*obs.Trace, regs []*obs.Registry) *Table {
	t := &Table{
		ID:      "breakdown",
		Title:   "Per-stage latency breakdown (virtual-time self time, collector attached)",
		Columns: []string{"path", "stage", "spans", "self", "share"},
		Notes: []string{
			"self time = span duration minus nested spans; other = envelope slack (client think/queueing)",
		},
	}
	for i, p := range breakdownPaths {
		for _, r := range obs.BreakdownRows(traces[i]) {
			t.AddRow(p.name, r.Stage.String(), fmt.Sprintf("%d", r.Count),
				r.Self.String(), fmt.Sprintf("%.1f%%", r.Share*100))
		}
	}
	if obsDir != "" {
		tj := make([]obs.TraceJSON, len(breakdownPaths))
		mj := make([]obs.MetricsJSON, len(breakdownPaths))
		for i, p := range breakdownPaths {
			tj[i] = obs.TraceJSON{Name: p.name, Trace: traces[i], PID: i + 1}
			mj[i] = obs.MetricsJSON{Name: p.name, Registry: regs[i]}
		}
		writeExports(obsDir, t.ID, tj, mj)
	}
	return t
}

// breakdownPlan enumerates the paths as runner jobs, each with its own
// slot-indexed collector.
func breakdownPlan(cfg BreakdownConfig, obsDir string, sh *shared) (func() *Table, []runner.Job) {
	traces := make([]*obs.Trace, len(breakdownPaths))
	regs := make([]*obs.Registry, len(breakdownPaths))
	jobs := runner.Jobs("breakdown", len(breakdownPaths),
		func(i int) string { return breakdownPaths[i].name },
		func(i int) {
			traces[i] = obs.NewTrace()
			regs[i] = obs.NewRegistry()
			breakdownPaths[i].run(cfg, traces[i], regs[i], sh)
		})
	return func() *Table { return breakdownRender(obsDir, traces, regs) }, jobs
}

// BreakdownSpec exposes the experiment for a shared pool. The collector
// is always attached; a non-empty obsDir also exports its spans and
// registries as obsDir/breakdown.{trace,metrics}.json.
func BreakdownSpec(cfg BreakdownConfig, obsDir string) Spec {
	return breakdownSpec(cfg, obsDir, newShared())
}

func breakdownSpec(cfg BreakdownConfig, obsDir string, sh *shared) Spec {
	table, jobs := breakdownPlan(cfg, obsDir, sh)
	return Spec{ID: "breakdown", Jobs: jobs, Table: table}
}
