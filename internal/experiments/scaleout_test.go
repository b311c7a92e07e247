package experiments

import (
	"path/filepath"
	"testing"
)

// smallScaleout returns a fast sweep.
func smallScaleout() ScaleoutConfig {
	cfg := DefaultScaleoutConfig()
	cfg.Shards = []int{2, 4}
	cfg.Thetas = []float64{0, 0.99}
	cfg.Keys = 1 << 11
	cfg.Requests = 2400
	return cfg
}

// TestScaleoutDeterministicExports is the golden determinism check of
// the sharded cluster: the rendered table and the metrics export must
// be byte-identical across runs and across worker counts — migrations,
// stale retries, and per-shard loads are all functions of the seed
// alone, never of scheduling.
func TestScaleoutDeterministicExports(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	ta := RunSpec(2, ScaleoutSpec(smallScaleout(), a)).String()
	tb := RunSpec(1, ScaleoutSpec(smallScaleout(), b)).String() // scheduling must not matter either
	if ta != tb {
		t.Fatalf("same seed, different tables:\n%s\n---\n%s", ta, tb)
	}
	sameExport(t, filepath.Join(a, "scaleout.metrics.json"), filepath.Join(b, "scaleout.metrics.json"))
}

// TestScaleoutSkewRebalances pins the experiment's headline claim: at
// Zipf 0.99 the cluster migrates hot keys and the end-of-run imbalance
// sits below the pre-migration window's, while every request still
// executes exactly once (the point would panic on a failed request).
func TestScaleoutSkewRebalances(t *testing.T) {
	cfg := DefaultScaleoutConfig()
	cfg.Keys = 1 << 12
	cfg.Requests = 4800
	for i, shards := range []int{4, 8} {
		row := scaleoutPoint(cfg, shards, 0.99, i, nil)
		if row.Migrations == 0 || row.MovedKeys == 0 {
			t.Fatalf("shards=%d: no migration under zipf 0.99: %+v", shards, row)
		}
		if row.ImbLast >= row.ImbFirst {
			t.Fatalf("shards=%d: imbalance did not drop: first %.2f, last %.2f",
				shards, row.ImbFirst, row.ImbLast)
		}
		if row.StaleRetries == 0 {
			t.Fatalf("shards=%d: map flips but no frontend ever refreshed: %+v", shards, row)
		}
		if row.Goodput <= 0 || row.P99 < row.Avg {
			t.Fatalf("shards=%d: implausible row %+v", shards, row)
		}
	}
}
