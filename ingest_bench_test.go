// BenchmarkIngestMix measures serving throughput under sustained
// ingest — the workload the scoped-invalidation scheme exists for.
// Each op is one AddRating followed by a wave of concurrent Recommend
// calls over fixed groups with a pinned candidate slice; the only
// variable between the two sub-benchmarks is the constructor —
// repro.NewWorld, or the test-only repro.NewFullInvalidationWorld
// whose ingests drop every neighborhood — so the delta is exactly the
// cost of drop-everything neighborhood invalidation versus the scoped
// scheme. Sorted views drop on every
// rating under both. Beyond ns/op, each run reports the cache outcomes
// that explain the number: the list store's view hit rate and the
// fraction of neighborhoods the ingests retained.
package repro_test

import (
	"sync"
	"testing"

	"repro"
	"repro/internal/dataset"
)

// ingestMixWorld builds a private warmed world (ingest mutates it, so
// unlike the serving benchmarks it cannot share parBenchWorld), plus
// the fixed request mix: serving groups with pinned candidate slices
// and a deterministic rating stream from raters outside the groups.
func ingestMixWorld(b *testing.B, full bool) (*repro.World, [][]dataset.UserID, [][]dataset.ItemID, []dataset.Rating) {
	b.Helper()
	build := repro.NewWorld
	if full {
		build = repro.NewFullInvalidationWorld
	}
	w, err := build(repro.QuickConfig())
	if err != nil {
		b.Fatal(err)
	}
	var light []dataset.UserID
	for _, u := range w.Participants() {
		if n := w.Ratings().Row(u).Len(); n > 0 && n < 200 {
			light = append(light, u)
		}
	}
	if len(light) < 32 {
		b.Fatalf("only %d light participants", len(light))
	}
	var groups [][]dataset.UserID
	var items [][]dataset.ItemID
	for i := 0; i+3 <= 12; i += 3 {
		g := light[i : i+3]
		cand := w.CandidateItems(g, 200)
		if len(cand) < 20 {
			continue
		}
		groups = append(groups, g)
		items = append(items, cand)
	}
	if len(groups) == 0 {
		b.Fatal("no viable serving groups")
	}
	// The rating stream: raters disjoint from the groups, each rating
	// an item the rater has not rated in the frozen base (re-applied
	// cyclically for long -benchtime runs; Apply appends, so the store
	// keeps accepting them).
	var stream []dataset.Rating
	for _, u := range light[12:] {
		for _, it := range w.Ratings().UnratedPopular([]dataset.UserID{u}, 1) {
			stream = append(stream, dataset.Rating{User: u, Item: it, Value: 4, Time: 978300000})
		}
	}
	if len(stream) == 0 {
		b.Fatal("no viable rating stream")
	}
	opt := repro.Options{K: 10}
	for gi, g := range groups {
		o := opt
		o.Items = items[gi]
		if _, err := w.Recommend(g, o); err != nil {
			b.Fatalf("warmup: %v", err)
		}
	}
	return w, groups, items, stream
}

func BenchmarkIngestMix(b *testing.B) {
	for _, mode := range []struct {
		name string
		full bool
	}{{"scoped", false}, {"full", true}} {
		b.Run(mode.name, func(b *testing.B) {
			w, groups, items, stream := ingestMixWorld(b, mode.full)
			before := w.CacheStats()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if err := w.AddRating(stream[n%len(stream)]); err != nil {
					b.Fatal(err)
				}
				var wg sync.WaitGroup
				for gi := range groups {
					wg.Add(1)
					go func(gi int) {
						defer wg.Done()
						o := repro.Options{K: 10, Items: items[gi]}
						if _, err := w.Recommend(groups[gi], o); err != nil {
							b.Error(err)
						}
					}(gi)
				}
				wg.Wait()
			}
			b.StopTimer()
			st := w.CacheStats()
			if vb := st.ListStore.ViewHits + st.ListStore.ViewBuilds - before.ListStore.ViewHits - before.ListStore.ViewBuilds; vb > 0 {
				hits := st.ListStore.ViewHits - before.ListStore.ViewHits
				b.ReportMetric(float64(hits)/float64(vb), "view-hit-rate")
			}
			if tot := st.Neighborhoods.Retained + st.Neighborhoods.Invalidated - before.Neighborhoods.Retained - before.Neighborhoods.Invalidated; tot > 0 {
				kept := st.Neighborhoods.Retained - before.Neighborhoods.Retained
				b.ReportMetric(float64(kept)/float64(tot), "nbhd-retained")
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		})
	}
}

// BenchmarkIngestOnly isolates the invalidation cost itself: AddRating
// with no serving traffic, scoped versus full, over warmed caches.
func BenchmarkIngestOnly(b *testing.B) {
	for _, mode := range []struct {
		name string
		full bool
	}{{"scoped", false}, {"full", true}} {
		b.Run(mode.name, func(b *testing.B) {
			w, groups, items, stream := ingestMixWorld(b, mode.full)
			_ = groups
			_ = items
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				if err := w.AddRating(stream[n%len(stream)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
		})
	}
}
