package experiments

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"rambda/internal/core"
	"rambda/internal/dlrm"
	"rambda/internal/hostcpu"
	"rambda/internal/interconnect"
	"rambda/internal/memspace"
	"rambda/internal/power"
	"rambda/internal/runner"
	"rambda/internal/sim"
)

func TestSharedGetBuildsOncePerKey(t *testing.T) {
	sh := newShared()
	var builds atomic.Int64
	got := make([]int, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = sharedGet(sh, "k", func() int { builds.Add(1); return 42 })
		}(i)
	}
	wg.Wait()
	for i, v := range got {
		if v != 42 {
			t.Fatalf("sharer %d got %d", i, v)
		}
	}
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	// Keys of different types never collide, even with equal values.
	type other string
	if v := sharedGet(sh, other("k"), func() int { return 7 }); v != 7 {
		t.Fatalf("typed key collided: got %d", v)
	}
	// A failed build panics in its own job, then in every later asker.
	for i := 0; i < 2; i++ {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Fatalf("ask %d: no panic after a failed build", i)
				}
			}()
			sharedGet(sh, 99, func() int { panic("boom") })
		}()
	}
}

// TestFig13StreamMatchesPerSystemBuild compares the shared stream with
// what each system used to compute itself: a backed buildDLRM in the
// system's own space and InferInto per request. The phantom layout must
// reproduce the backed regions, every query's stats and rebased trace
// must match, and so must the throughput of the old per-system loops.
func TestFig13StreamMatchesPerSystemBuild(t *testing.T) {
	cfg := Fig13Config{Queries: 1500, Dim: 64, RowScale: 0.02, Seed: 13}
	cat := dlrm.AmazonCategories[3]
	s := fig13Stream(cat, cfg, newShared())
	for _, sys := range []struct {
		name string
		mc   core.MachineConfig
		kind memspace.Kind
	}{
		{"CPU-4", core.MachineConfig{Name: "srv", Cores: 4}, memspace.KindDRAM},
		{"RAMBDA", core.MachineConfig{Name: "srv", Variant: core.AccelBase}, memspace.KindDRAM},
		{"RAMBDA-LH", core.MachineConfig{Name: "srv", Variant: core.AccelLH}, memspace.KindAccelLocal},
	} {
		t.Run(sys.name, func(t *testing.T) {
			backed := core.NewMachine(sys.mc)
			model, ds := buildDLRM(cat, cfg, backed.Space, sys.kind)
			phantom := core.NewMachine(sys.mc)
			lay := s.reserve(phantom.Space, sys.kind)
			br, pr := backed.Space.Regions(), phantom.Space.Regions()
			if len(br) != len(pr) {
				t.Fatalf("%d phantom regions, want %d", len(pr), len(br))
			}
			for i := range br {
				if br[i].Name != pr[i].Name || br[i].Range != pr[i].Range || br[i].Kind != pr[i].Kind {
					t.Fatalf("region %d: %s %+v %v, want %s %+v %v", i,
						pr[i].Name, pr[i].Range, pr[i].Kind, br[i].Name, br[i].Range, br[i].Kind)
				}
			}
			var q dlrm.Query
			var sc dlrm.InferScratch
			for k, w := range s.queries {
				ds.NextQueryInto(&q)
				_, _, st := model.InferInto(q, dlrm.AggSum, &sc)
				reqB, respB := dlrmWire(q, cat.BundleSize)
				if w.reqB != reqB || w.respB != respB || w.reduced != st.ReducedVectors ||
					w.flops != st.FLOPs || len(w.rows) != len(st.Trace) {
					t.Fatalf("query %d: stream %d/%d B, %d vectors, %d FLOPs, %d rows; per-system %d/%d B, %d, %d, %d",
						k, w.reqB, w.respB, w.reduced, w.flops, len(w.rows),
						reqB, respB, st.ReducedVectors, st.FLOPs, len(st.Trace))
				}
				for j, a := range st.Trace {
					if lay.addr(w.rows[j]) != a.Addr || lay.rowBytes != a.Bytes {
						t.Fatalf("query %d access %d: rebased %#x+%d, per-system %#x+%d",
							k, j, lay.addr(w.rows[j]), lay.rowBytes, a.Addr, a.Bytes)
					}
				}
			}
			var got float64
			if sys.mc.Variant == core.NoAccel {
				got = fig13CPU(s, cfg, sys.mc.Cores)
			} else {
				got = fig13Rambda(s, cfg, sys.mc.Variant)
			}
			if want := perSystemFig13(cat, cfg, sys.mc, sys.kind); got != want {
				t.Fatalf("throughput %v, per-system build %v", got, want)
			}
		})
	}
}

// perSystemFig13 is the timing walk as each system ran it before the
// stream was shared: its own backed model, inferring every request
// inline.
func perSystemFig13(cat dlrm.Category, cfg Fig13Config, mc core.MachineConfig, kind memspace.Kind) float64 {
	m := core.NewMachine(mc)
	model, ds := buildDLRM(cat, cfg, m.Space, kind)
	net := interconnect.NewDuplex("net", core.NetBW, core.NetOneWay)
	ctx := &core.AppCtx{M: m, A: m.Accel}
	clients := fig13AccelClients
	if mc.Variant == core.NoAccel {
		clients = mc.Cores * 8
	}
	var q dlrm.Query
	var sc dlrm.InferScratch
	res := sim.ClosedLoop{Clients: clients, PerClient: fig13PerClient(cfg, clients), Warmup: 1,
		Stagger: 60 * sim.Nanosecond, Jitter: 300 * sim.Nanosecond, JitterSeed: cfg.Seed}.Run(
		func(_ int, issue sim.Time) sim.Time {
			ds.NextQueryInto(&q)
			_, _, st := model.InferInto(q, dlrm.AggSum, &sc)
			reqB, respB := dlrmWire(q, cat.BundleSize)
			t := net.AtoB.Send(issue, reqB)
			switch mc.Variant {
			case core.NoAccel:
				t = m.CPU.Process(t, hostcpu.Work{
					Cycles:   cpuDLRMBaseCycles + cpuDLRMPerRowCycles*st.ReducedVectors,
					Accesses: len(st.Trace), AccessBytes: model.Table.RowBytes(),
					Addr: model.Table.Range().Base, Parallel: true,
					MLP: cpuDLRMGatherMLP, DRAMFactor: cpuDLRMDRAMFactor,
				})
				return net.BtoA.Send(t, respB)
			case core.AccelBase:
				t = ctx.InvokeCPU(t, reqB, 500)
				for _, a := range st.Trace {
					t = m.Accel.ReadDataBlocking(t, a.Addr, a.Bytes)
				}
			default:
				t = ctx.InvokeCPU(t, reqB, 500)
				for i := 0; i < len(st.Trace); i += 64 {
					var addrs []memspace.Addr
					for _, a := range st.Trace[i:min(i+64, len(st.Trace))] {
						addrs = append(addrs, a.Addr)
					}
					t = m.Accel.ReadDataWave(t, addrs, model.Table.RowBytes())
				}
			}
			t = ctx.Compute(t, apuReduceCyclesPerRow*st.ReducedVectors+st.FLOPs/64)
			return net.BtoA.Send(t, respB)
		})
	return res.Throughput
}

// TestFig13CheckNamesBadQuery plants a wrong score and a wrong gather
// row: the reference check must panic naming the category and query.
func TestFig13CheckNamesBadQuery(t *testing.T) {
	cfg := Fig13Config{Queries: 8, Dim: 64, RowScale: 0.02, Seed: 13}
	cat := dlrm.AmazonCategories[0]
	model, ds := buildDLRM(cat, cfg, memspace.New(), memspace.KindDRAM)
	s := fig13Stream(cat, cfg, newShared())
	var q dlrm.Query
	ds.NextQueryInto(&q)
	score, _, _ := model.Infer(q, dlrm.AggSum)
	acc := make([]float32, cfg.Dim)
	checkInference(model, ds.Bundles, q, score, &s.queries[0], acc, cat.Name, 0)

	wrongRow := s.queries[0]
	wrongRow.rows = append([]uint32(nil), wrongRow.rows...)
	wrongRow.rows[len(wrongRow.rows)-1]++
	for name, c := range map[string]struct {
		score float32
		w     *dlrmQuery
	}{
		"score": {score + 1e-3, &s.queries[0]},
		"row":   {score, &wrongRow},
	} {
		func() {
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, cat.Name+" query 0") {
					t.Fatalf("planted %s: panic %q does not name %s query 0", name, msg, cat.Name)
				}
			}()
			checkInference(model, ds.Bundles, q, c.score, c.w, acc, cat.Name, 0)
		}()
	}
}

// TestKVSSharedPointsMatchFresh runs fig8, fig10 and tab3 on one shared
// table, as a sweep does: tab3 and fig10's batch-32 rows must equal a
// fresh measureKVS of their point, and the table must have measured
// the six repeated points once.
func TestKVSSharedPointsMatchFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second experiment")
	}
	cfg := testKVSConfig()
	cfg.Requests = 2000
	sh := newShared()
	f8, j8 := fig8Plan(cfg, sh)
	f10, j10 := fig10Plan(cfg, sh)
	t3, j3 := tab3Plan(cfg, sh)
	runner.MustRun(0, append(append(j8, j10...), j3...))

	points := 0
	for k := range sh.cells {
		if _, ok := k.(kvsPoint); ok {
			points++
		}
	}
	if want := len(f8) + len(f10) + len(t3) - 6; points != want {
		t.Fatalf("table measured %d KVS points, want %d distinct", points, want)
	}
	fresh := func(system string, batch int) kvsCaller {
		switch system {
		case "CPU":
			return newCPUKVS(cfg, batch, false, newShared())
		case "SmartNIC":
			return newSNICKVS(cfg, newShared())
		}
		return newRambdaKVS(cfg, core.AccelBase, batch, newShared())
	}
	for _, r := range f10 {
		if r.Batch != cfg.Batch {
			continue
		}
		res := measureKVS(cfg, fresh(r.System, r.Batch), true, false, cfg.Batch)
		if r.Throughput != res.Throughput || r.Avg != res.Latency.Mean() {
			t.Fatalf("fig10 %s batch %d: %v / %v, fresh %v / %v",
				r.System, r.Batch, r.Throughput, r.Avg, res.Throughput, res.Latency.Mean())
		}
	}
	for _, r := range t3 {
		res := measureKVS(cfg, fresh(r.System, cfg.Batch), false, false, cfg.Batch)
		if want := power.KopsPerWatt(res.Throughput, r.Watts); r.KopPerW != want {
			t.Fatalf("tab3 %s: %v Kop/W, fresh %v", r.System, r.KopPerW, want)
		}
	}
}

// TestSpecsAloneMatchGoldens runs tab3, fig10 and fig13 each alone from
// a fresh StandardSpecs(true): with nothing earlier in the sweep to
// share, every point is measured by its own spec, and the tables must
// still match their goldens.
func TestSpecsAloneMatchGoldens(t *testing.T) {
	if goldenRaceEnabled {
		t.Skip("quick figure sweeps are too slow under -race")
	}
	if testing.Short() {
		t.Skip("quick figure sweeps take seconds; skipped with -short")
	}
	for _, id := range []string{"tab3", "fig10", "fig13"} {
		t.Run(id, func(t *testing.T) {
			for _, s := range StandardSpecs(true) {
				if s.ID != id {
					continue
				}
				got := RunSpec(0, s).String()
				want, err := os.ReadFile(goldenPath(id))
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Fatalf("%s alone diverged from its golden.\n--- got ---\n%s--- want ---\n%s", id, got, want)
				}
			}
		})
	}
}

// TestStandardSpecsShareWithinNotAcrossCalls shows by allocation volume
// whether a tab3 point was measured or read from the table: a point
// builds a 2^18-key store (tens of MB), a table hit builds nothing.
// Rerunning a job of the same StandardSpecs call must hit; the same job
// from a second call must measure again.
func TestStandardSpecsShareWithinNotAcrossCalls(t *testing.T) {
	if goldenRaceEnabled {
		t.Skip("quick figure sweeps are too slow under -race")
	}
	if testing.Short() {
		t.Skip("quick KVS points take seconds; skipped with -short")
	}
	tab3Job := func(specs []Spec) runner.Job {
		for _, s := range specs {
			if s.ID == "tab3" {
				return s.Jobs[0]
			}
		}
		t.Fatal("StandardSpecs lost tab3")
		return runner.Job{}
	}
	allocated := func(j runner.Job) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		j.Fn()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	first, second := tab3Job(StandardSpecs(true)), tab3Job(StandardSpecs(true))
	const measured = 10 << 20
	if b := allocated(first); b < measured {
		t.Fatalf("first measurement allocated only %d B", b)
	}
	if b := allocated(first); b >= measured/10 {
		t.Fatalf("rerun within one sweep allocated %d B; want a table hit", b)
	}
	if b := allocated(second); b < measured {
		t.Fatalf("second StandardSpecs call allocated only %d B; its table must be its own", b)
	}
}

// TestFig13ConcurrentSharersMatchSequential runs each category's eight
// systems on eight workers, all sharing the category's stream, against
// a one-worker run on its own table.
func TestFig13ConcurrentSharersMatchSequential(t *testing.T) {
	cfg := Fig13Config{Queries: 600, Dim: 64, RowScale: 0.01, Seed: 13}
	seq, seqJobs := fig13Plan(cfg, newShared())
	par, parJobs := fig13Plan(cfg, newShared())
	runner.MustRun(1, seqJobs)
	runner.MustRun(8, parJobs)
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("row %d: 8 workers %+v, 1 worker %+v", i, par[i], seq[i])
		}
	}
}
