// Sharding benchmarks: the same warmed request mix replayed against
// worlds partitioned 1, 4, and 16 ways, with concurrent callers mixed
// with an invalidation stream so the per-shard locking actually gets
// exercised:
//
//	go test -bench BenchmarkRecommendSharded -benchtime 2s
//
// On a single-CPU container the three shard counts should be within
// noise of each other (sharding buys lock independence, not compute);
// the interesting readings come from multi-core hardware (see
// EXPERIMENTS.md).
package repro_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro"
	"repro/internal/dataset"
)

var (
	shardBenchMu     sync.Mutex
	shardBenchWorlds = map[int]*repro.World{}
	shardBenchGroups [][]dataset.UserID
)

// shardBenchWorld builds (once per shard count) a QuickConfig world
// with the same warmed group mix as the parallel benchmarks.
func shardBenchWorld(b *testing.B, shards int) (*repro.World, [][]dataset.UserID) {
	b.Helper()
	shardBenchMu.Lock()
	defer shardBenchMu.Unlock()
	if w, ok := shardBenchWorlds[shards]; ok {
		return w, shardBenchGroups
	}
	cfg := repro.QuickConfig()
	cfg.AssemblyWorkers = 1
	cfg.Shards = shards
	w, err := repro.NewWorld(cfg)
	if err != nil {
		b.Fatalf("bench world (shards=%d): %v", shards, err)
	}
	if shardBenchGroups == nil {
		var light []dataset.UserID
		for _, u := range w.Participants() {
			if n := len(w.Ratings().ByUser(u)); n > 0 && n < 200 {
				light = append(light, u)
			}
		}
		if len(light) < 24 {
			b.Fatalf("only %d light participants", len(light))
		}
		for i := 0; i < 16; i++ {
			size := 2 + i%4
			shardBenchGroups = append(shardBenchGroups, light[i:i+size])
		}
	}
	opt := repro.Options{K: 10, NumItems: 600}
	for _, g := range shardBenchGroups {
		if _, err := w.Recommend(g, opt); err != nil {
			b.Fatalf("warmup (shards=%d): %v", shards, err)
		}
	}
	shardBenchWorlds[shards] = w
	return w, shardBenchGroups
}

// BenchmarkBatchShardAware measures the batch facade on the warmed
// group mix: one RecommendBatch call per iteration over all 16 groups,
// against worlds partitioned 1, 4, and 16 ways.
func BenchmarkBatchShardAware(b *testing.B) {
	opt := repro.Options{K: 10, NumItems: 600}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			w, groups := shardBenchWorld(b, shards)
			reqs := make([]repro.Request, len(groups))
			for i, g := range groups {
				reqs[i] = repro.Request{Group: g, Options: opt}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				results := w.RecommendBatch(reqs)
				for _, r := range results {
					if r.Err != nil {
						b.Fatal(r.Err)
					}
				}
			}
		})
	}
}

// BenchmarkRecommendSharded measures steady-state Recommend throughput
// at NumCPU concurrent callers against worlds sharded 1, 4, and 16
// ways, with a background goroutine continuously invalidating one
// user's views — the workload the per-shard locks exist for.
func BenchmarkRecommendSharded(b *testing.B) {
	opt := repro.Options{K: 10, NumItems: 600}
	for _, shards := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			w, groups := shardBenchWorld(b, shards)
			victim := w.Participants()[0]
			stop := make(chan struct{})
			go func() {
				for {
					select {
					case <-stop:
						return
					default:
						w.InvalidateUserViews(victim)
					}
				}
			}()
			gor := runtime.NumCPU()
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
			close(stop)
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		})
	}
}
