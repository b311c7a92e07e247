package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// smallBreakdown returns a fast configuration.
func smallBreakdown() BreakdownConfig {
	cfg := DefaultBreakdownConfig()
	cfg.Requests = 400
	return cfg
}

// TestBreakdownDeterministicExports is the golden determinism check of
// the observability layer: two runs with the same seed must produce
// byte-identical trace and metrics files — virtual-time spans, integer
// timestamp math, and sorted metric names leave no room for run-to-run
// noise.
func TestBreakdownDeterministicExports(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	RunSpec(2, BreakdownSpec(smallBreakdown(), a))
	RunSpec(1, BreakdownSpec(smallBreakdown(), b)) // scheduling must not matter either
	for _, name := range []string{"breakdown.trace.json", "breakdown.metrics.json"} {
		sameExport(t, filepath.Join(a, name), filepath.Join(b, name))
	}
}

// sameExport fails unless the two export files exist, are non-empty,
// and are byte-identical.
func sameExport(t *testing.T, a, b string) []byte {
	t.Helper()
	x, err := os.ReadFile(a)
	if err != nil {
		t.Fatal(err)
	}
	y, err := os.ReadFile(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) == 0 {
		t.Fatalf("%s: empty export", a)
	}
	if !bytes.Equal(x, y) {
		t.Fatalf("%s and %s differ: same seed must export byte-identical files", a, b)
	}
	return x
}

// TestBreakdownTable smoke-tests the per-stage latency table: every
// instrumented path must report rows, each path's shares must sum to
// ~100%, and the fig7 KVS-style path must attribute time to the core
// pipeline stages.
func TestBreakdownTable(t *testing.T) {
	tab := RunSpec(2, BreakdownSpec(smallBreakdown(), ""))
	if tab.ID != "breakdown" {
		t.Fatalf("table ID = %q", tab.ID)
	}
	shares := map[string]float64{}
	stages := map[string]map[string]bool{}
	for _, row := range tab.Rows {
		path, stage := row[0], row[1]
		pct, err := strconv.ParseFloat(strings.TrimSuffix(row[4], "%"), 64)
		if err != nil {
			t.Fatalf("share %q: %v", row[4], err)
		}
		shares[path] += pct
		if stages[path] == nil {
			stages[path] = map[string]bool{}
		}
		stages[path][stage] = true
	}
	for _, p := range []string{"fig7/RAMBDA", "fig8/RAMBDA"} {
		if _, ok := shares[p]; !ok {
			t.Fatalf("no rows for path %q", p)
		}
		if s := shares[p]; s < 99 || s > 101 {
			t.Fatalf("%s: stage shares sum to %.1f%%, want ~100%%", p, s)
		}
		for _, st := range []string{"nic", "ring", "memory"} {
			if !stages[p][st] {
				t.Fatalf("%s: no %q stage rows (got %v)", p, st, stages[p])
			}
		}
	}
}
