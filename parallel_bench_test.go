// Throughput benchmarks for the concurrent engine, modeled on the
// canonical-session benchmark idiom: a fixed request mix replayed
// against one warmed World at increasing goroutine counts, reporting
// ops/sec so the scaling curve is read straight off the output:
//
//	go test -bench BenchmarkRecommendParallel -benchtime 2s
//
// The acceptance bar is ≥2× ops/sec at 4 goroutines versus one caller
// on QuickConfig. The goroutines=1 row is one caller, not a sequential
// path: inside each call the assembler still spreads row fills and view
// builds over GOMAXPROCS goroutines.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/dataset"
)

var (
	parBenchOnce   sync.Once
	parBenchWorld  *repro.World
	parBenchGroups [][]dataset.UserID
	parBenchErr    error
)

// parallelBenchWorld builds one QuickConfig world with a fixed group
// mix and warms every cache layer, so the timed region measures steady
// -state serving throughput rather than first-touch neighborhood
// computation.
func parallelBenchWorld(b *testing.B) (*repro.World, [][]dataset.UserID) {
	b.Helper()
	parBenchOnce.Do(func() {
		cfg := repro.QuickConfig()
		w, err := repro.NewWorld(cfg)
		if err != nil {
			parBenchErr = err
			return
		}
		// A mix of group sizes over light-history participants (heavy
		// raters can exhaust the small catalog's candidate pool).
		var light []dataset.UserID
		for _, u := range w.Participants() {
			if n := w.Ratings().Row(u).Len(); n > 0 && n < 200 {
				light = append(light, u)
			}
		}
		if len(light) < 24 {
			parBenchErr = fmt.Errorf("only %d light participants", len(light))
			return
		}
		var groups [][]dataset.UserID
		for i := 0; i < 16; i++ {
			size := 2 + i%4
			groups = append(groups, light[i:i+size])
		}
		parBenchWorld, parBenchGroups = w, groups
	})
	if parBenchErr != nil {
		b.Fatalf("bench world: %v", parBenchErr)
	}
	return parBenchWorld, parBenchGroups
}

func benchOptions() repro.Options {
	return repro.Options{K: 10, NumItems: 600}
}

// BenchmarkRecommendParallel measures Recommend throughput at 1, 4,
// and NumCPU concurrent callers against one shared World.
func BenchmarkRecommendParallel(b *testing.B) {
	w, groups := parallelBenchWorld(b)
	opt := benchOptions()
	// Warm neighborhoods and views once for the whole mix.
	for _, g := range groups {
		if _, err := w.Recommend(g, opt); err != nil {
			b.Fatalf("warmup: %v", err)
		}
	}
	var counts []int
	seen := map[int]bool{}
	for _, g := range []int{1, 4, runtime.NumCPU()} {
		if !seen[g] {
			seen[g] = true
			counts = append(counts, g)
		}
	}
	for _, gor := range counts {
		b.Run(fmt.Sprintf("goroutines=%d", gor), func(b *testing.B) {
			var next atomic.Int64
			var wg sync.WaitGroup
			b.ResetTimer()
			for n := 0; n < gor; n++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := next.Add(1) - 1
						if i >= int64(b.N) {
							return
						}
						g := groups[i%int64(len(groups))]
						if _, err := w.Recommend(g, opt); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		})
	}
}

// BenchmarkRecommendBatch measures the batch facade on the same mix —
// the Figure 6 sweep shape, many groups per call.
func BenchmarkRecommendBatch(b *testing.B) {
	w, groups := parallelBenchWorld(b)
	opt := benchOptions()
	reqs := make([]repro.Request, len(groups))
	for i, g := range groups {
		reqs[i] = repro.Request{Group: g, Options: opt}
	}
	if res := w.RecommendBatchContext(context.Background(), reqs); res[0].Err != nil {
		b.Fatalf("warmup: %v", res[0].Err)
	}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, res := range w.RecommendBatchContext(context.Background(), reqs) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*len(reqs))/b.Elapsed().Seconds(), "groups/sec")
}
