package server

import (
	"context"
	"testing"

	"repro"
)

// benchParallelism simulates concurrent client load even on a 1-CPU
// container: RunParallel spawns GOMAXPROCS × this many goroutines.
const benchParallelism = 8

// BenchmarkServeSubmit measures request throughput through the
// admission gate: concurrent submitters each run their request on
// their own goroutine via World.RecommendContext.
func BenchmarkServeSubmit(b *testing.B) {
	w := testWorld(b)
	g := newGate(w.RecommendContext, 0)
	defer g.Close()
	benchSubmit(b, w, func(req repro.Request) error {
		res, err := g.Submit(context.Background(), req)
		if err != nil {
			return err
		}
		return res.Err
	})
}

// benchSubmit drives the serving-shaped load: each goroutine submits
// single-group requests drawn round-robin from a small set of groups,
// the interactive pattern the serving layer exists for.
func benchSubmit(b *testing.B, w *repro.World, submit func(repro.Request) error) {
	parts := w.Participants()
	groups := [][]int{{0, 1, 2}, {2, 3}, {4, 5, 6}, {0, 3, 5}}
	reqs := make([]repro.Request, len(groups))
	for i, g := range groups {
		group := make([]int, len(g))
		copy(group, g)
		r := repro.Request{Options: repro.Options{K: 3, NumItems: 200}}
		for _, idx := range group {
			r.Group = append(r.Group, parts[idx])
		}
		reqs[i] = r
	}
	// Warm the caches so the benchmark measures steady-state serving.
	for _, r := range reqs {
		if err := submit(r); err != nil {
			b.Fatalf("warmup: %v", err)
		}
	}
	b.SetParallelism(benchParallelism)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if err := submit(reqs[i%len(reqs)]); err != nil {
				b.Errorf("submit: %v", err)
				return
			}
			i++
		}
	})
}
