package main

import (
	"io"
	"strings"
	"testing"

	"rambda/internal/experiments"
	"rambda/internal/kvs"
	"rambda/internal/runner"
)

// tiny shrinks a workload's key space and windows, keeping its mix and
// connection shape.
func tiny(spec servingSpec, rounds int) servingSpec {
	spec.keys = 1 << 10
	spec.warmup = spec.clients()
	spec.measured = spec.clients() * rounds
	return spec
}

func TestServingWorkloadsPassChecks(t *testing.T) {
	ref := newReference()
	for name, spec := range servingWorkloads {
		t.Run(name, func(t *testing.T) {
			spec := tiny(spec, 40)
			a := runTrial(spec, 7, false, ref)
			b := runTrial(spec, 7, false, ref)
			tr := runTrial(spec, 7, true, ref)
			for _, r := range []trial{a, b, tr} {
				if r.failed != 0 || r.firstErr != nil {
					t.Fatalf("%d of %d requests failed: %v", r.failed, r.attempted, r.firstErr)
				}
				if r.virt != a.virt {
					t.Fatalf("virtual metrics differ for one seed: %+v vs %+v", r.virt, a.virt)
				}
			}
			if a.virt.Samples != spec.measured || a.virt.P99us < a.virt.P50us || a.virt.GoodputMops <= 0 {
				t.Fatalf("implausible virtual metrics %+v", a.virt)
			}
			if c := runTrial(spec, 8, false, nil); c.virt == a.virt {
				t.Fatalf("seeds 7 and 8 gave identical virtual metrics %+v", c.virt)
			}

			if len(a.lapsHost) != lapsPerWindow || a.setupHost <= 0 || a.totalHost <= 0 || a.refLap <= 0 {
				t.Fatalf("scaled host times: %d laps, setup %v, total %v, reference lap %v",
					len(a.lapsHost), a.setupHost, a.totalHost, a.refLap)
			}

			// Every measured nanosecond lands in one layer.
			var sum float64
			for _, d := range tr.self {
				sum += d.Seconds()
			}
			if m := tr.measured.Seconds(); sum > m || sum < 0.95*m {
				t.Fatalf("layer self times sum to %.6f s, measured phase %.6f s", sum, m)
			}
			if tr.accesses == 0 || tr.self[layerTransport] == 0 || tr.self[layerAppCtx] == 0 {
				t.Fatalf("traced trial missed layers: accesses %d, self %v", tr.accesses, tr.self)
			}
			if spec.lsm && spec.updatePct > 0 && (tr.lsmDelta.Flushes == 0 || tr.lsmDelta.Stalls == 0) {
				t.Fatalf("update mix did no flush or stall: %+v", tr.lsmDelta)
			}
			if spec.scanPct > 0 && tr.window.scanPairs == 0 {
				t.Fatal("scan mix returned no pairs")
			}
		})
	}
}

// scanResult lays out keys as a backend's scan result.
func scanResult(m *model, keys ...int) ([]byte, []kvs.ScanPair) {
	var buf []byte
	var pairs []kvs.ScanPair
	for _, k := range keys {
		off := len(buf)
		buf = appendKey(buf, k)
		buf = appendValue(buf, k, m.versions[k])
		pairs = append(pairs, kvs.ScanPair{KeyOff: off, KeyLen: keyBytes, ValLen: valueBytes})
	}
	return buf, pairs
}

func seq(from, n, step int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = from + i*step
	}
	return out
}

func TestValidator(t *testing.T) {
	m := newModel(100)
	m.versions[12] = 5

	buf, pairs := scanResult(m, seq(10, 16, 1)...)
	if err := m.checkScan(buf, pairs, 10, 16, false); err != nil {
		t.Fatalf("correct scan rejected: %v", err)
	}
	buf, pairs = scanResult(m, seq(10, 11, -1)...)
	if err := m.checkScan(buf, pairs, 10, 16, true); err != nil {
		t.Fatalf("correct reverse scan to the first key rejected: %v", err)
	}
	buf, pairs = scanResult(m, seq(95, 5, 1)...)
	if err := m.checkScan(buf, pairs, 95, 16, false); err != nil {
		t.Fatalf("correct scan to the last key rejected: %v", err)
	}

	cases := []struct {
		name  string
		keys  []int
		plant func(buf []byte)
		want  string
	}{
		{"wrong value", seq(10, 16, 1), func(buf []byte) { buf[3*(keyBytes+valueBytes)+keyBytes+9] ^= 1 }, "wrong value"},
		{"out of order", append(seq(10, 2, 1), append([]int{13, 12}, seq(14, 12, 1)...)...), nil, "out of order"},
		{"over limit", seq(10, 17, 1), nil, "over limit"},
		{"missing pair", seq(10, 15, 1), nil, "want 16"},
	}
	for _, c := range cases {
		buf, pairs := scanResult(m, c.keys...)
		if c.plant != nil {
			c.plant(buf)
		}
		err := m.checkScan(buf, pairs, 10, 16, false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want an error containing %q", c.name, err, c.want)
		}
	}

	val := appendValue(nil, 12, 5)
	if err := m.checkGet(kvs.Response{Status: kvs.StatusOK, Val: val}, 12); err != nil {
		t.Fatalf("correct get rejected: %v", err)
	}
	if err := m.checkGet(kvs.Response{Status: kvs.StatusOK, Val: appendValue(nil, 12, 4)}, 12); err == nil {
		t.Fatal("stale get accepted")
	}
	if err := m.checkGet(kvs.Response{Status: kvs.StatusOK, Val: appendValue(nil, 13, 0)}, 12); err == nil {
		t.Fatal("get of another key's value accepted")
	}
	if err := m.checkGet(kvs.Response{Status: kvs.StatusError}, 12); err == nil {
		t.Fatal("error status accepted")
	}
}

func TestSweepCountsFailures(t *testing.T) {
	boom := experiments.Spec{
		ID: "boom",
		Jobs: runner.Jobs("boom", 3, nil, func(i int) {
			if i == 1 {
				panic("planted")
			}
		}),
		Table: func() *experiments.Table {
			tb := &experiments.Table{ID: "boom", Columns: []string{"state"}}
			tb.AddRow("ok")
			tb.AddRow("FAIL")
			return tb
		},
	}
	a := runSweep([]experiments.Spec{experiments.Fig5Spec(), boom}, true)
	if a.failed != 2 || a.firstErr == nil {
		t.Fatalf("failed = %d (%v), want the panic and the FAIL cell", a.failed, a.firstErr)
	}
	if a.jobs != len(experiments.Fig5Spec().Jobs)+3 || !strings.Contains(a.tables, "=== fig5") {
		t.Fatalf("sweep ran %d jobs; tables:\n%s", a.jobs, a.tables)
	}
	if a.perSpec[0] <= 0 {
		t.Fatalf("fig5 host time %v", a.perSpec[0])
	}
	b := runSweep([]experiments.Spec{experiments.Fig5Spec()}, false)
	if b.failed != 0 || !strings.HasPrefix(a.tables, b.tables) {
		t.Fatalf("fig5 tables differ between sweeps or failed (%d)", b.failed)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "kvs-get", "--trace", "2"},
		{"--bogus"},
	} {
		if code := run(args, io.Discard, io.Discard); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
	}
}
