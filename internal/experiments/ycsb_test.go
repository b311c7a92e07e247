package experiments

import (
	"path/filepath"
	"strings"
	"testing"
)

// smallYCSB returns a fast sweep.
func smallYCSB() YCSBConfig {
	cfg := DefaultYCSBConfig()
	cfg.Keys = 1 << 11
	cfg.Requests = 2400
	return cfg
}

// TestYCSBDeterministicExports pins the ycsb sweep's determinism: the
// rendered table and the per-point metrics export must be
// byte-identical across runs and across worker counts — compaction
// schedules, WAL-wrap stalls, and scan results are functions of the
// seed alone, never of scheduling.
func TestYCSBDeterministicExports(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	ta := RunSpec(2, YCSBSpec(smallYCSB(), a)).String()
	tb := RunSpec(1, YCSBSpec(smallYCSB(), b)).String() // scheduling must not matter either
	if ta != tb {
		t.Fatalf("same seed, different tables:\n%s\n---\n%s", ta, tb)
	}
	x := sameExport(t, filepath.Join(a, "ycsb.metrics.json"), filepath.Join(b, "ycsb.metrics.json"))
	if !strings.Contains(string(x), "ycsb.lsm") {
		t.Fatalf("metrics export missing lsm registry gauges")
	}
}

// TestYCSBBackendsBehave pins the sweep's storage claims on single
// points: the update-heavy mix drives real LSM background work, and the
// scan-heavy mix answers through the merged iterator on the LSM while
// the hash backend still completes it via the bucket cursor.
func TestYCSBBackendsBehave(t *testing.T) {
	cfg := DefaultYCSBConfig()
	cfg.Keys = 1 << 12
	cfg.Requests = 3200
	mixA, mixE := ycsbMixes[0], ycsbMixes[3]

	lsmA := ycsbPoint(cfg, mixA, "lsm", 0, nil)
	if lsmA.Flushes == 0 {
		t.Fatalf("workload A on lsm never flushed: %+v", lsmA)
	}
	if lsmA.Goodput <= 0 || lsmA.P99 < lsmA.P50 {
		t.Fatalf("implausible row %+v", lsmA)
	}

	lsmE := ycsbPoint(cfg, mixE, "lsm", 1, nil)
	if lsmE.Goodput <= 0 {
		t.Fatalf("workload E on lsm produced no goodput: %+v", lsmE)
	}

	hashE := ycsbPoint(cfg, mixE, "hash", 2, nil)
	if hashE.Goodput <= 0 {
		t.Fatalf("workload E on hash produced no goodput: %+v", hashE)
	}
	if hashE.Flushes != 0 || hashE.Stalls != 0 {
		t.Fatalf("hash backend reported LSM counters: %+v", hashE)
	}
}
