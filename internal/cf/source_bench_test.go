package cf

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
)

// The batch-vs-sequential benchmarks quantify the preference-layer win
// independent of core count: PredictBatch resolves the neighborhood
// once and streams neighbor rating lists, where the per-item path pays
// a neighborhood lookup plus k binary searches for every single item.

func benchSubstrate(b *testing.B) (*dataset.Store, *Predictor, []dataset.ItemID) {
	b.Helper()
	rng := rand.New(rand.NewSource(7))
	s := dataset.NewStore()
	seen := make(map[[2]int]bool)
	for n := 0; n < 30_000; n++ {
		u, it := rng.Intn(300), rng.Intn(1200)
		if seen[[2]int{u, it}] {
			continue
		}
		seen[[2]int{u, it}] = true
		if err := s.Add(dataset.Rating{
			User:  dataset.UserID(u),
			Item:  dataset.ItemID(it),
			Value: float64(1 + rng.Intn(5)),
		}); err != nil {
			b.Fatalf("Add: %v", err)
		}
	}
	s.Freeze()
	p, err := NewPredictor(s, DefaultNeighbors)
	if err != nil {
		b.Fatal(err)
	}
	items := make([]dataset.ItemID, 600)
	for i := range items {
		items[i] = dataset.ItemID(i * 2)
	}
	p.Neighbors(0) // warm the benchmark user's neighborhood
	return s, p, items
}

func BenchmarkPredictPerItem(b *testing.B) {
	_, p, items := benchSubstrate(b)
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		for _, it := range items {
			p.Predict(0, it)
		}
	}
}

func BenchmarkPredictBatch(b *testing.B) {
	_, p, items := benchSubstrate(b)
	dst := make([]float64, len(items))
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p.PredictBatchInto(0, items, dst)
	}
}
