// Distributed serving benchmark: the warmed request mix replayed
// against a router whose shards live in worker processes reached over
// loopback TCP (in-process goroutines speaking the real wire
// protocol), versus the in-process world the other benchmarks
// measure. The delta against BenchmarkRecommendParallel/goroutines=1
// on the same group mix is the transport tax: framing, CRC, syscalls,
// and the view decode.
//
//	go test -bench BenchmarkRecommendRemote -benchtime 2s
package repro_test

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/remote"
)

// remoteBenchStack builds a router fronting nWorkers loopback workers
// over a `shards`-way world, with the shards dealt round-robin.
// listStore sizes the router's list store — the views it keeps of what
// it fetches (0 = liststore.DefaultMaxUsers, the production default).
func remoteBenchStack(b *testing.B, shards, nWorkers, listStore int) *repro.World {
	b.Helper()
	cfg := repro.QuickConfig()
	cfg.Shards = shards

	owns := make([][]int, nWorkers)
	for sh := 0; sh < shards; sh++ {
		owns[sh%nWorkers] = append(owns[sh%nWorkers], sh)
	}
	fleet := repro.StartLoopbackFleet(b, owns, func(owned []int) (*repro.ShardBackend, error) {
		return repro.NewShardBackendFromConfig(cfg, owned)
	})
	// Only the router keeps a list store; its capacity is excluded from
	// the config fingerprint.
	cfg.ListStoreSize = listStore
	router, err := repro.NewWorld(cfg)
	if err != nil {
		b.Fatalf("router world: %v", err)
	}
	if err := router.AttachRemote(fleet.Set); err != nil {
		b.Fatalf("AttachRemote: %v", err)
	}
	return router
}

// runRemoteBench replays the warmed group mix through a distributed
// router, reporting wire-call extras from the transport counter deltas:
// rpcs/op is total calls per Recommend, view_rpcs/op the view-fetch
// calls alone — the number the batched ops collapse from O(members) to
// O(workers).
func runRemoteBench(b *testing.B, shards, nWorkers, listStore int) {
	opt := repro.Options{K: 10, NumItems: 600}
	router := remoteBenchStack(b, shards, nWorkers, listStore)
	_, groups := parallelBenchWorld(b)
	for _, g := range groups {
		if _, err := router.Recommend(g, opt); err != nil {
			b.Fatalf("warmup: %v", err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	before := router.RemoteStats().Transport
	for i := 0; i < b.N; i++ {
		g := groups[i%len(groups)]
		if _, err := router.Recommend(g, opt); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	after := router.RemoteStats().Transport
	n := float64(b.N)
	b.ReportMetric(float64(totalCalls(after)-totalCalls(before))/n, "rpcs/op")
	views := (after.CallsByOp["view"] + after.CallsByOp["view_multi"]) -
		(before.CallsByOp["view"] + before.CallsByOp["view_multi"])
	b.ReportMetric(float64(views)/n, "view_rpcs/op")
}

// BenchmarkRecommendRemote measures steady-state Recommend latency
// through the distributed stack on the warmed group mix with a
// one-view router store, smaller than any multi-member group — so
// every view and prediction row crosses the wire, one batched RPC per
// worker per assembly: the price of a wire fetch. shards=1/workers=1
// is the minimal-hop configuration; shards=4/workers=2 is the CI e2e
// split.
func BenchmarkRecommendRemote(b *testing.B) {
	cases := []struct{ shards, workers int }{
		{1, 1},
		{4, 2},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("shards=%d/workers=%d", tc.shards, tc.workers), func(b *testing.B) {
			runRemoteBench(b, tc.shards, tc.workers, 1)
		})
	}
}

// BenchmarkRecommendRemoteBatched is the same stack with the default
// router: its list store keeps what it fetches, so the steady-state
// group mix hits warm views, the view-fetch RPCs drop toward zero and
// the remaining wire cost is the prediction path. The delta against
// BenchmarkRecommendRemote at the same split is what keeping views
// buys.
func BenchmarkRecommendRemoteBatched(b *testing.B) {
	cases := []struct{ shards, workers int }{
		{1, 1},
		{4, 2},
	}
	for _, tc := range cases {
		b.Run(fmt.Sprintf("shards=%d/workers=%d", tc.shards, tc.workers), func(b *testing.B) {
			runRemoteBench(b, tc.shards, tc.workers, 0)
		})
	}
}

// totalCalls sums every op's call count: the rpcs side of rpcs/op.
func totalCalls(t remote.TransportStats) uint64 {
	var n uint64
	for _, v := range t.CallsByOp {
		n += v
	}
	return n
}
