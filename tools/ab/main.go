// Command ab compares the repository benchmark (perfbench) between a
// base revision and HEAD on this machine: it checks each revision out
// as a git worktree under .bench_build/ab/, builds its perfbench there,
// runs alternating pairs of one workload for BENCHMARK.json's
// run_seconds at seed 1, and prints, for every end-to-end metric that
// BENCHMARK.json declares, each side's median and quartiles, how many
// pairs HEAD won, and whether its gain is claimable: better in at least
// 9 of 10 pairs and, in the median, by more than the base's
// interquartile range. Run it from the repository root:
//
//	make ab BASE=main WORKLOAD=figures-quick PAIRS=10
//	go run ./tools/ab -base main -workload kvs-get -pairs 10
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// result is perfbench's last output line.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// e2eMetric is one BENCHMARK.json end_to_end entry.
type e2eMetric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func main() {
	base := flag.String("base", "", "base revision (required)")
	workload := flag.String("workload", "figures-quick", "perfbench workload")
	pairs := flag.Int("pairs", 10, "alternating base/HEAD run pairs")
	flag.Parse()
	if *base == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "ab: -base is required and -pairs must be positive")
		os.Exit(2)
	}
	var spec struct {
		RunSeconds float64     `json:"run_seconds"`
		EndToEnd   []e2eMetric `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	check(err)
	check(json.Unmarshal(raw, &spec))

	dir, err := filepath.Abs(filepath.Join(".bench_build", "ab"))
	check(err)
	bins := [2]string{build(dir, *base), build(dir, "HEAD")}
	args := []string{"--workload", *workload, "--seed", "1",
		"--seconds", fmt.Sprint(spec.RunSeconds), "--trace", "0"}

	// runs[side][pair]; the first run of a pair alternates so neither
	// side always goes first.
	var runs [2][]result
	for p := 0; p < *pairs; p++ {
		for _, side := range [][2]int{{0, 1}, {1, 0}}[p%2] {
			r := run(bins[side], args)
			runs[side] = append(runs[side], r)
			fmt.Fprintf(os.Stderr, "pair %d %s: wall_s %.4g correct %v failed %d\n",
				p, [2]string{"base", "head"}[side], r.Metrics["wall_s"].Value, r.Correct, r.Failed)
		}
	}

	fmt.Printf("%s, %d pairs of %g s, base %s\n", *workload, *pairs, spec.RunSeconds, *base)
	fmt.Printf("%-18s %-34s %-34s %8s %5s %-9s %s\n",
		"metric", "base median [q1, q3]", "head median [q1, q3]", "change", "wins", "claimable", "within bound")
	for _, m := range spec.EndToEnd {
		var v [2][]float64
		for side := range runs {
			for _, r := range runs[side] {
				if x, ok := r.Metrics[m.Name]; ok {
					v[side] = append(v[side], x.Value)
				}
			}
		}
		if len(v[0]) != *pairs || len(v[1]) != *pairs {
			continue // the workload does not report this metric
		}
		sign := 1.0 // +1 when lower is better
		if m.Better == "higher" {
			sign = -1
		}
		wins := 0
		for p := range v[0] {
			if sign*(v[0][p]-v[1][p]) > 0 {
				wins++
			}
		}
		b, h := quartiles(v[0]), quartiles(v[1])
		gain := sign * (b[1] - h[1]) // positive when head is better
		claimable := wins*10 >= 9**pairs && gain > b[2]-b[0]
		change := 0.0
		if b[1] != 0 {
			change = (h[1] - b[1]) / math.Abs(b[1])
		}
		fmt.Printf("%-18s %-34s %-34s %+7.1f%% %2d/%-2d %-9v %v\n", m.Name,
			fmt.Sprintf("%.4g [%.4g, %.4g]", b[1], b[0], b[2]),
			fmt.Sprintf("%.4g [%.4g, %.4g]", h[1], h[0], h[2]),
			100*change, wins, *pairs, claimable, sign*change <= m.Bound)
	}
	for side, name := range [2]string{"base", "head"} {
		for p, r := range runs[side] {
			if !r.Correct || r.Failed > 0 {
				fmt.Printf("%s pair %d: correct %v, %d of %d operations failed\n", name, p, r.Correct, r.Failed, r.Attempted)
			}
		}
	}
}

// build checks rev out as a detached worktree under dir (once per
// commit) and builds its perfbench there, with the same isolated Go
// environment as perfbench/run.sh. It returns the binary's path.
func build(dir, rev string) string {
	sha := strings.TrimSpace(output(exec.Command("git", "rev-parse", "--verify", rev+"^{commit}")))
	wt := filepath.Join(dir, sha[:12])
	if _, err := os.Stat(wt); err != nil {
		cmd := exec.Command("git", "worktree", "add", "--detach", wt, sha)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		check(cmd.Run())
	}
	bin := filepath.Join(dir, "perfbench-"+sha[:12])
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Dir = filepath.Join(wt, "perfbench")
	cmd.Env = append(os.Environ(), "GOCACHE="+filepath.Join(dir, "gocache"),
		"GOMODCACHE="+filepath.Join(dir, "gomodcache"), "XDG_CONFIG_HOME="+filepath.Join(dir, "config"),
		"GOTOOLCHAIN=local", "GOWORK=off", "GOPROXY=off", "GOSUMDB=off")
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	check(cmd.Run())
	fmt.Fprintf(os.Stderr, "built %s (%s)\n", rev, sha[:12])
	return bin
}

// run executes one perfbench run and parses its last output line.
func run(bin string, args []string) result {
	out := output(exec.Command(bin, args...))
	var last string
	sc := bufio.NewScanner(strings.NewReader(out))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		fmt.Fprintf(os.Stderr, "ab: %s: last line is not a result: %v\n", bin, err)
		os.Exit(1)
	}
	return r
}

// quartiles returns the first quartile, median and third quartile,
// interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[lo]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func output(cmd *exec.Cmd) string {
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "ab: %s: %v\n", strings.Join(cmd.Args, " "), err)
		os.Exit(1)
	}
	return out.String()
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}
