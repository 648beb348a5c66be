package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
)

// specFile is the benchmark definition, relative to the root of the
// checkout, where run.sh starts the program.
const specFile = "BENCHMARK.json"

// benchSpec is the part of BENCHMARK.json --compare needs.
type benchSpec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// side is one run set's view of one (workload, metric): the median of
// its runs and their interquartile spread as a share of the median.
type side struct {
	median, spread float64
	n              int
}

func sideOf(set *runSet, workload, metric string) side {
	var xs []float64
	for _, r := range set.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			xs = append(xs, m.Value)
		}
	}
	if len(xs) == 0 {
		return side{}
	}
	q1, q3 := quartiles(xs)
	med := median(xs)
	return side{median: med, spread: ratio(q3-q1, med), n: len(xs)}
}

// verdict judges b against the baseline a: unresolved when either
// side's own spread is wider than the bound (the runs cannot tell), else
// worse when b's median is worse than a's by more than the bound. The
// spread of setup_s is not judged, as the driver does not judge it: three
// set-ups a run do not steady it, and only its median is held to a bound.
func verdict(m specMetric, a, b side) string {
	if a.n == 0 || b.n == 0 {
		return "missing"
	}
	if m.Name != "setup_s" && (a.spread > m.Bound || b.spread > m.Bound) {
		return "unresolved"
	}
	worse := b.median > a.median*(1+m.Bound)
	if m.Better == "higher" {
		worse = b.median < a.median*(1-m.Bound)
	}
	if worse {
		return "worse"
	}
	return "ok"
}

// sameConditions refuses run sets measured under different conditions.
func sameConditions(a, b *runSet) error {
	switch {
	case a.GOMAXPROCS != b.GOMAXPROCS || a.Connections != b.Connections:
		return fmt.Errorf("gomaxprocs/connections differ: %d/%d vs %d/%d", a.GOMAXPROCS, a.Connections, b.GOMAXPROCS, b.Connections)
	case a.Seconds != b.Seconds || a.Trace != b.Trace:
		return fmt.Errorf("durations differ: %g s trace %t vs %g s trace %t", a.Seconds, a.Trace, b.Seconds, b.Trace)
	case !reflect.DeepEqual(a.Seeds, b.Seeds):
		return fmt.Errorf("seeds differ: %v vs %v", a.Seeds, b.Seeds)
	}
	return nil
}

// compareMain prints one row per (workload, end-to-end metric) for the
// first run set against each of the others, and returns the exit code:
// 0 when every row is ok.
func compareMain(files []string) int {
	if len(files) < 2 {
		fmt.Fprintln(os.Stderr, "bench: --compare needs a baseline and at least one other run set")
		return 2
	}
	var spec benchSpec
	if err := readJSON(specFile, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	sets := make([]*runSet, len(files))
	for i, f := range files {
		sets[i] = &runSet{}
		if err := readJSON(f, sets[i]); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		if err := sameConditions(sets[0], sets[i]); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s and %s are not comparable: %v\n", files[0], f, err)
			return 2
		}
	}
	code := 0
	for i := 1; i < len(sets); i++ {
		fmt.Printf("%s (a) vs %s (b)\n", files[0], files[i])
		fmt.Printf("%-13s %-17s %6s %12s %7s %12s %7s %8s  %s\n", "workload", "metric", "bound", "a median", "spread", "b median", "spread", "b/a", "verdict")
		for _, wl := range spec.Workloads {
			for _, m := range spec.EndToEnd {
				a, b := sideOf(sets[0], wl.Name, m.Name), sideOf(sets[i], wl.Name, m.Name)
				v := verdict(m, a, b)
				if v != "ok" {
					code = 1
				}
				fmt.Printf("%-13s %-17s %5.0f%% %12.4f %6.1f%% %12.4f %6.1f%% %8.3f  %s\n",
					wl.Name, m.Name, 100*m.Bound, a.median, 100*a.spread, b.median, 100*b.spread, ratio(b.median, a.median), v)
			}
		}
	}
	return code
}
