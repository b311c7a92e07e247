package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rambda/internal/experiments"
	"rambda/internal/runner"
)

// sweepWorkers is the figures-quick runner pool size.
const sweepWorkers = 2

// sweep is one pass over every quick table.
type sweep struct {
	wall     time.Duration
	tables   string
	jobs     int
	failed   int
	firstErr error
	ids      []string
	perSpec  []time.Duration // host time in each spec's jobs and render (traced only)
	gcCPU    float64
}

// runSweep runs specs as rambda-figures does: every spec's jobs
// flattened into one pool, then each table rendered in print order. A
// job or render that panics and a FAIL cell count as failures; the
// other jobs still run.
func runSweep(specs []experiments.Spec, traced bool) sweep {
	gc0, _ := readRuntime()
	t0 := time.Now()
	sw := sweep{ids: make([]string, len(specs))}
	busy := make([]atomic.Int64, len(specs))
	var mu sync.Mutex
	fail := func(err error) {
		mu.Lock()
		defer mu.Unlock()
		sw.failed++
		if sw.firstErr == nil {
			sw.firstErr = err
		}
	}
	var jobs []runner.Job
	for si, sp := range specs {
		sw.ids[si] = sp.ID
		for _, j := range sp.Jobs {
			si, j := si, j
			fn := j.Fn
			j.Fn = func() {
				start := time.Now()
				defer func() {
					if v := recover(); v != nil {
						fail(fmt.Errorf("job %s[%d] %q panicked: %v", j.Experiment, j.Point, j.Name, v))
					}
					if traced {
						busy[si].Add(int64(time.Since(start)))
					}
				}()
				fn()
			}
			jobs = append(jobs, j)
		}
	}
	sw.jobs = len(jobs)
	if err := runner.Run(sweepWorkers, jobs); err != nil {
		fail(err)
	}
	var out strings.Builder
	for si, sp := range specs {
		start := time.Now()
		func() {
			defer func() {
				if v := recover(); v != nil {
					fail(fmt.Errorf("render %s panicked: %v", sp.ID, v))
				}
			}()
			t := sp.Table()
			for _, row := range t.Rows {
				for _, cell := range row {
					if cell == "FAIL" {
						fail(fmt.Errorf("%s: FAIL cell in row %v", sp.ID, row))
					}
				}
			}
			out.WriteString(t.String())
			out.WriteByte('\n')
		}()
		busy[si].Add(int64(time.Since(start)))
	}
	sw.wall = time.Since(t0)
	gc1, _ := readRuntime()
	sw.gcCPU = gc1 - gc0
	sw.tables = out.String()
	if traced {
		sw.perSpec = make([]time.Duration, len(specs))
		for i := range busy {
			sw.perSpec[i] = time.Duration(busy[i].Load())
		}
	}
	return sw
}

func tablesDigest(tables string) string {
	sum := sha256.Sum256([]byte(tables))
	return hex.EncodeToString(sum[:8])
}
