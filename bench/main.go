// Command bench is the repository's benchmark: it builds a fixed
// synthetic world per workload, serves it in-process through the real
// HTTP surface, drives it open-loop from the same process, checks the
// answers against a cold rebuild and prints every metric by name. See
// README.md.
//
//	bash bench/run.sh                       every workload once, end-to-end metrics
//	bash bench/run.sh --trace 1             the traced pass: per-layer metrics
//	bash bench/run.sh --seed 2 --out a.json the same, added to the run set a.json
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
)

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 20

// outDir receives trace files and temporary WAL directories; it is
// relative to the root of the checkout, where run.sh starts the program.
const outDir = "bench/out"

// runSet is what --out records and --compare reads: a set of runs of
// one commit and the conditions they ran under.
type runSet struct {
	GoVersion   string       `json:"go_version"`
	GOMAXPROCS  int          `json:"gomaxprocs"`
	Connections int          `json:"connections"`
	Seconds     float64      `json:"seconds"`
	Trace       bool         `json:"trace"`
	Seeds       []int64      `json:"seeds"`
	Runs        []*runResult `json:"runs"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run (default: all of them)")
		seed    = flag.Int64("seed", 1, "workload seed: group draws, arrival schedule, rating stream")
		seconds = flag.Float64("seconds", defaultSeconds, "seconds one run measures (ramp + steady + saturate, shared out between the blocks, or ramp + steady + traced pass)")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		block   = flag.Int("block", 0, "internal: go through the life cycle once, as this block of a run, for --seconds")
		out     = flag.String("out", "", "add the runs to the run set in this file (created if missing)")
		compare = flag.Bool("compare", false, "compare the run sets named as arguments against the first")
	)
	flag.Parse()
	if *compare {
		os.Exit(compareMain(flag.Args()))
	}
	if err := measure(*name, *seed, *seconds, *trace != 0, *block, *out); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// measure runs the workload (every workload without a name) once and
// reports it: as blocks passes through the life cycle, each in a process
// of its own, or as one pass in this process when it is traced or is
// itself such a block.
func measure(name string, seed int64, seconds float64, trace bool, block int, out string) error {
	todo := workloads
	if name != "" {
		wl, err := findWorkload(name)
		if err != nil {
			return err
		}
		todo = []workload{wl}
	}
	if seconds <= 0 {
		return fmt.Errorf("need --seconds > 0")
	}
	set := runSet{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), Connections: connections(),
		Seconds: seconds, Trace: trace, Seeds: []int64{seed},
	}
	correct := true
	for _, wl := range todo {
		c := runConfig{wl: wl, sc: benchScale, seed: seed, seconds: seconds, trace: trace, outDir: outDir}
		var (
			res *runResult
			err error
		)
		switch {
		case block > 0:
			c.skipOracle = block < blocks
			res, err = runOne(c)
		case trace:
			res, err = runOne(c)
		default:
			res, err = runBlocks(c)
		}
		if err != nil {
			return fmt.Errorf("%s seed %d: %w", wl.name, seed, err)
		}
		set.Runs = append(set.Runs, res)
		correct = correct && res.Correct
		if err := report(res); err != nil {
			return err
		}
	}
	if out != "" {
		if err := addToRunSet(out, set); err != nil {
			return err
		}
	}
	if !correct {
		return fmt.Errorf("incorrect: failed operations or oracle mismatches (see above)")
	}
	return nil
}

// addToRunSet appends set's runs to the run set in path, which must have
// been measured under the same conditions, or creates it. A run set is
// built one process per seed, the way a driver runs the benchmark.
func addToRunSet(path string, set runSet) error {
	var have runSet
	switch err := readJSON(path, &have); {
	case err == nil:
		seeds := have.Seeds
		have.Seeds = set.Seeds // seeds are what differs between the parts of a set
		if err := sameConditions(&have, &set); err != nil {
			return fmt.Errorf("%s was measured under other conditions: %w", path, err)
		}
		set.Runs = append(have.Runs, set.Runs...)
		if !slices.Contains(seeds, set.Seeds[0]) {
			seeds = append(seeds, set.Seeds[0])
		}
		set.Seeds = seeds
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// report prints one run for a reader, then the one-line JSON object a
// driver parses (always the last line of a run's output).
func report(r *runResult) error {
	fmt.Printf("\n== %s  seed %d  trace %t  blocks %d  gomaxprocs %d  connections %d  recommend %g/s  ratings %g/s  limit %g ms\n",
		r.Workload, r.Seed, r.Trace, r.Blocks, runtime.GOMAXPROCS(0), r.Connections, r.RateRPS, r.RatingRateRPS, r.SLOLimitMS)
	for _, phase := range []string{"warmup", "ramp", "steady", "saturate", "traced", "oracle"} {
		if t, ok := r.Phases[phase]; ok {
			fmt.Printf("   phase %-9s sent %6d  succeeded %6d  failed %3d  %.2f s\n", phase, t.Sent, t.Succeeded, t.Failed, t.Seconds)
		}
	}
	printMetrics("", r.Metrics)
	printMetrics("note: ", r.Notes)
	if r.Overloaded {
		fmt.Println("   OVERLOADED: the backlog was still standing at the end of steady; latencies measure the queue")
	}
	line, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int     `json:"attempted"`
		Failed    int     `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	return nil
}

func printMetrics(prefix string, m metrics) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("   %s%-42s %14.4f %s\n", prefix, n, m[n].Value, m[n].Unit)
	}
}
