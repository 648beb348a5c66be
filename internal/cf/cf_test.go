package cf

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

func buildStore(t *testing.T, ratings [][3]float64) *dataset.Store {
	t.Helper()
	s := dataset.NewStore()
	for _, r := range ratings {
		err := s.Add(dataset.Rating{
			User:  dataset.UserID(int(r[0])),
			Item:  dataset.ItemID(int(r[1])),
			Value: r[2],
		})
		if err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	s.Freeze()
	return s
}

func TestNewPredictorRequiresFrozenStore(t *testing.T) {
	if _, err := NewPredictor(nil, 5); err == nil {
		t.Errorf("nil store accepted")
	}
	if _, err := NewPredictor(dataset.NewStore(), 5); err == nil {
		t.Errorf("unfrozen store accepted")
	}
}

func TestCosine(t *testing.T) {
	// Users 0 and 1 have identical ratings; user 2 orthogonal.
	s := buildStore(t, [][3]float64{
		{0, 1, 5}, {0, 2, 3},
		{1, 1, 5}, {1, 2, 3},
		{2, 3, 4},
	})
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cosine(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("identical users cosine = %v, want 1", got)
	}
	if got := p.Cosine(0, 2); got != 0 {
		t.Errorf("disjoint users cosine = %v, want 0", got)
	}
	if p.Cosine(0, 0) != 1 {
		t.Errorf("self cosine != 1")
	}
	if p.Cosine(0, 1) != p.Cosine(1, 0) {
		t.Errorf("cosine not symmetric")
	}
}

func TestCosineHandComputed(t *testing.T) {
	// u0: item1=4, item2=2; u1: item1=2, item2=4.
	// dot = 8+8 = 16; norms = sqrt(20) each → cos = 16/20 = 0.8.
	s := buildStore(t, [][3]float64{
		{0, 1, 4}, {0, 2, 2},
		{1, 1, 2}, {1, 2, 4},
	})
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Cosine(0, 1); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("cosine = %v, want 0.8", got)
	}
}

func TestPredictUsesOwnRatingWhenPresent(t *testing.T) {
	s := buildStore(t, [][3]float64{{0, 1, 2}, {1, 1, 5}})
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Predict(0, 1); got != 2 {
		t.Errorf("Predict should return own rating: %v", got)
	}
}

func TestPredictNeighborWeighted(t *testing.T) {
	// u0 resembles u1 (both rated item 1 with 5); u1 rated item 2 with
	// 4. u2 is dissimilar (rated item 1 low) and rated item 2 with 1.
	s := buildStore(t, [][3]float64{
		{0, 1, 5},
		{1, 1, 5}, {1, 2, 4},
		{2, 1, 1}, {2, 2, 1},
	})
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := p.Predict(0, 2)
	// The prediction must lean toward the similar user's rating (4)
	// rather than the dissimilar one's (1).
	if got <= 2.5 {
		t.Errorf("Predict(0,2) = %v, should lean toward 4", got)
	}
}

func TestPredictFallbacks(t *testing.T) {
	s := buildStore(t, [][3]float64{
		{0, 1, 5},
		{1, 2, 2}, {1, 3, 4},
	})
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	// User 0 has no overlap with user 1, so no neighbors rate item 2:
	// fall back to the item mean (2).
	if got := p.Predict(0, 2); got != 2 {
		t.Errorf("item-mean fallback = %v, want 2", got)
	}
	// Entirely unknown item: global mean.
	if got := p.Predict(0, 99); math.Abs(got-globalMean(p)) > 1e-12 {
		t.Errorf("global-mean fallback = %v, want %v", got, globalMean(p))
	}
}

func TestNeighborsSortedAndCapped(t *testing.T) {
	ratings := [][3]float64{}
	// User 0 rates items 1..10; users 1..20 rate overlapping subsets.
	for i := 1; i <= 10; i++ {
		ratings = append(ratings, [3]float64{0, float64(i), 4})
	}
	for u := 1; u <= 20; u++ {
		for i := 1; i <= 5+u%5; i++ {
			ratings = append(ratings, [3]float64{float64(u), float64(i), float64(1 + (u+i)%5)})
		}
	}
	s := buildStore(t, ratings)
	p, err := NewPredictor(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	ns := p.Neighbors(0)
	if len(ns) > 7 {
		t.Fatalf("neighbors = %d, cap 7", len(ns))
	}
	for i := 1; i < len(ns); i++ {
		if ns[i].Sim > ns[i-1].Sim {
			t.Errorf("neighbors not sorted desc")
		}
	}
	for _, n := range ns {
		if n.User == 0 {
			t.Errorf("self in neighbor list")
		}
		if n.Sim <= 0 {
			t.Errorf("non-positive similarity neighbor")
		}
	}
}

func TestPredictionRange(t *testing.T) {
	cfg := dataset.DefaultSynthConfig()
	cfg.Users = 60
	cfg.Items = 120
	cfg.TargetRatings = 2000
	sy, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPredictor(sy.Store, 10)
	if err != nil {
		t.Fatal(err)
	}
	f := func(a, b uint8) bool {
		u := dataset.UserID(int(a) % cfg.Users)
		it := dataset.ItemID(int(b) % cfg.Items)
		v := p.Predict(u, it)
		return v >= 1 && v <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPairwiseSimilaritySum(t *testing.T) {
	s := buildStore(t, [][3]float64{
		{0, 1, 5}, {1, 1, 5}, {2, 1, 5},
	})
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Three identical users: 3 pairs × cosine 1 = 3.
	if got := p.PairwiseSimilaritySum([]dataset.UserID{0, 1, 2}); math.Abs(got-3) > 1e-12 {
		t.Errorf("sum = %v, want 3", got)
	}
}

func TestPredictBatchOwnRatings(t *testing.T) {
	s := buildStore(t, [][3]float64{{0, 1, 3}, {0, 2, 5}})
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := p.PredictBatch(0, []dataset.ItemID{1, 2})
	if len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("PredictBatch = %v", got)
	}
}

// globalMean is the dataset mean rating: the fallback for an item no
// one has rated.
func globalMean(p *Predictor) float64 { return p.means.Load().globalMean }
