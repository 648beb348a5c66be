// Command benchgate compares a fresh benchjson report against the
// checked-in baseline and fails (exit 1) on allocation regressions:
// any benchmark present in both reports whose allocs/op grew by more
// than the threshold (default 20%, plus a small absolute grace for
// counting noise on tiny benchmarks) is a gate failure.
//
// Allocation counts — unlike wall-clock times — are nearly
// deterministic for a pinned GOMAXPROCS, which is what makes this
// gate viable on shared CI runners where ns/op is noise. Names are
// compared with the trailing "-N" procs suffix stripped, so a runner
// with a different core count still matches the baseline entries (the
// baseline must still be produced at the same GOMAXPROCS for the
// counts themselves to line up; CI pins it).
//
// Usage:
//
//	go run ./scripts/benchgate -baseline BENCH_baseline.json -current BENCH_current.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type report struct {
	GoMaxProcs int `json:"gomaxprocs"`
	Benchmarks []struct {
		Name        string  `json:"name"`
		AllocsPerOp float64 `json:"allocs_per_op"`
	} `json:"benchmarks"`
}

func load(path string) (map[string]float64, int, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	var rep report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", path, err)
	}
	out := make(map[string]float64, len(rep.Benchmarks))
	for _, b := range rep.Benchmarks {
		if b.AllocsPerOp >= 0 {
			out[normalize(b.Name)] = b.AllocsPerOp
		}
	}
	return out, rep.GoMaxProcs, nil
}

// normalize strips the trailing "-N" GOMAXPROCS suffix go test appends
// to benchmark names.
func normalize(name string) string {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		suffix := name[i+1:]
		if len(suffix) > 0 && strings.Trim(suffix, "0123456789") == "" {
			return name[:i]
		}
	}
	return name
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_baseline.json", "checked-in baseline report")
	currentPath := flag.String("current", "BENCH_current.json", "fresh report to gate")
	threshold := flag.Float64("threshold", 0.20, "relative allocs/op growth that fails the gate")
	grace := flag.Float64("grace", 16, "absolute allocs/op growth always tolerated (counting noise)")
	flag.Parse()

	base, baseProcs, err := load(*baselinePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	cur, curProcs, err := load(*currentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	if baseProcs != 0 && curProcs != 0 && baseProcs != curProcs {
		fmt.Fprintf(os.Stderr, "benchgate: GOMAXPROCS mismatch: baseline %d vs current %d — alloc counts are not comparable\n", baseProcs, curProcs)
		os.Exit(2)
	}

	compared, failed := 0, 0
	for name, b := range base {
		c, ok := cur[name]
		if !ok {
			fmt.Printf("SKIP %-60s not in current report\n", name)
			continue
		}
		compared++
		limit := b*(1+*threshold) + *grace
		status := "ok  "
		if c > limit {
			status = "FAIL"
			failed++
		}
		fmt.Printf("%s %-60s baseline %10.0f  current %10.0f  limit %10.0f allocs/op\n", status, name, b, c, limit)
	}
	for name := range cur {
		if _, ok := base[name]; !ok {
			fmt.Printf("NEW  %-60s %10.0f allocs/op (no baseline yet)\n", name, cur[name])
		}
	}
	if compared == 0 {
		fmt.Fprintln(os.Stderr, "benchgate: no overlapping benchmarks between baseline and current")
		os.Exit(2)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: %d of %d benchmarks regressed beyond %.0f%% allocs/op\n", failed, compared, *threshold*100)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within the %.0f%% alloc budget\n", compared, *threshold*100)
}
