package cf

import (
	"fmt"
	"testing"

	"repro/internal/dataset"
)

// The batch-vs-sequential benchmarks quantify the preference-layer win
// independent of core count: PredictBatch resolves the neighborhood
// once and streams neighbor rating lists, where the per-item path pays
// a neighborhood lookup plus k binary searches for every single item.
// Both run one view's worth of predictions on the bench workloads' world
// (2 000 users × 1 500 items × 150 000 ratings): the 600 most popular
// items for one user whose neighborhood is already cached.

func benchSubstrate(b *testing.B) (*Predictor, dataset.UserID, []dataset.ItemID) {
	b.Helper()
	cfg := dataset.DefaultSynthConfig()
	cfg.Users, cfg.Items, cfg.TargetRatings = 2000, 1500, 150_000
	syn, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	p, err := NewPredictor(syn.Store, DefaultNeighbors)
	if err != nil {
		b.Fatal(err)
	}
	u := syn.Store.Users()[0]
	if len(p.Neighbors(u)) == 0 { // warm the benchmark user's neighborhood
		b.Fatalf("user %d has no neighbors", u)
	}
	return p, u, syn.Store.PopularSet(600)
}

func BenchmarkPredictPerItem(b *testing.B) {
	p, u, items := benchSubstrate(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, it := range items {
			p.Predict(u, it)
		}
	}
}

// BenchmarkPredictBatch is pinned in the gate at 0 allocs/op: the
// kernel's working set is pooled and a cached neighborhood is shared.
// It runs at the per-item comparison's 600 candidates and at the whole
// catalog, the shape of a view build, which predicts every pool item.
func BenchmarkPredictBatch(b *testing.B) {
	p, u, _ := benchSubstrate(b)
	for _, n := range []int{600, len(p.store.Items())} {
		items := p.store.PopularSet(n)
		b.Run(fmt.Sprintf("candidates=%d", n), func(b *testing.B) {
			dst := make([]float64, len(items))
			p.PredictBatchInto(u, items, dst) // grows the pooled working set
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				p.PredictBatchInto(u, items, dst)
			}
		})
	}
}
