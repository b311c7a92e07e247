package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"rambda/internal/runner"
)

// update regenerates the quick goldens from the current code:
//
//	go test ./internal/experiments -run 'TestQuickFigureGoldenOutput' -update
//
// A regeneration changes what the repository promises its figures are,
// so it must come with a CHANGES.md entry explaining why the model (not
// just a formatting nit) moved.
var update = flag.Bool("update", false, "regenerate testdata/<id>_quick.golden and testdata/exports_quick.sha256")

const exportsManifest = "exports_quick.sha256"

func goldenPath(id string) string { return filepath.Join("testdata", id+"_quick.golden") }

// TestQuickFigureGoldenOutput pins every quick table byte for byte
// against testdata/<id>_quick.golden, and every observability export
// (SHA-256 and size; the breakdown Chrome trace is megabytes) against
// testdata/exports_quick.sha256. The sweep runs with exports on, so it
// also pins that exporting leaves the tables untouched (the goldens are
// what StandardSpecs(true) prints). Any diff means the model's
// virtual-time behaviour drifted, not just a formatting nit.
func TestQuickFigureGoldenOutput(t *testing.T) {
	if goldenRaceEnabled {
		t.Skip("quick figure sweeps are too slow under -race; determinism is covered unraced")
	}
	if testing.Short() {
		t.Skip("quick figure sweeps take minutes; skipped with -short")
	}
	dir := t.TempDir()
	specs := StandardSpecsObs(true, dir)
	var jobs []runner.Job
	for _, s := range specs {
		jobs = append(jobs, s.Jobs...)
	}
	runner.MustRun(0, jobs)
	for _, s := range specs {
		got := s.Table().String()
		t.Run(s.ID, func(t *testing.T) {
			if *update {
				if err := os.WriteFile(goldenPath(s.ID), []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath(s.ID))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s -quick output diverged from its golden.\n--- got ---\n%s--- want ---\n%s", s.ID, got, want)
			}
		})
	}

	t.Run("exports", func(t *testing.T) {
		got, err := exportDigests(dir)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", exportsManifest)
		if *update {
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			return
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("-quick exports diverged from %s.\n--- got ---\n%s--- want ---\n%s", exportsManifest, got, want)
		}
	})
}

// exportDigests renders one "sha256  size  name" line per file in dir,
// in name order (the format of sha256sum, plus the size).
func exportDigests(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	var lines []string
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return "", err
		}
		sum := sha256.Sum256(b)
		lines = append(lines, fmt.Sprintf("%s  %d  %s\n", hex.EncodeToString(sum[:]), len(b), e.Name()))
	}
	return strings.Join(lines, ""), nil
}

// TestEverySpecHasAGolden keeps the golden set and the experiment list
// in lockstep: a spec added to StandardSpecs without a quick golden,
// or a golden left behind by a removed spec, fails here (cheaply, even
// under -short and -race).
func TestEverySpecHasAGolden(t *testing.T) {
	var ids []string
	for _, s := range StandardSpecs(true) {
		ids = append(ids, s.ID)
	}
	sort.Strings(ids)
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	var golden []string
	for _, f := range files {
		golden = append(golden, strings.TrimSuffix(filepath.Base(f), "_quick.golden"))
	}
	sort.Strings(golden)
	if strings.Join(ids, " ") != strings.Join(golden, " ") {
		t.Fatalf("StandardSpecs(true) IDs %v do not match testdata goldens %v; regenerate with -update and explain the change in CHANGES.md", ids, golden)
	}
}
