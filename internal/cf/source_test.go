package cf

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// randomStore builds a deterministic pseudo-random store with
// timestamps, so the batch-equivalence tests exercise all fallback
// paths (own rating, neighbor coverage, item mean, global mean).
func randomStore(t *testing.T, users, items, ratings int, seed int64) *dataset.Store {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var recs []dataset.Rating
	seen := make(map[[2]int]bool)
	for n := 0; n < ratings; n++ {
		u, it := rng.Intn(users), rng.Intn(items)
		if seen[[2]int{u, it}] {
			continue
		}
		seen[[2]int{u, it}] = true
		recs = append(recs, dataset.Rating{
			User:  dataset.UserID(u),
			Item:  dataset.ItemID(it),
			Value: float64(1 + rng.Intn(5)),
			Time:  rng.Int63n(1_000_000),
		})
	}
	s, err := dataset.FromRatings(recs)
	if err != nil {
		t.Fatalf("FromRatings: %v", err)
	}
	return s
}

// checkBatchMatchesSequential asserts PredictBatch is bit-identical to
// per-item Predict for every user over the given candidate slice.
func checkBatchMatchesSequential(t *testing.T, p *Predictor, users []dataset.UserID, items []dataset.ItemID) {
	t.Helper()
	for _, u := range users {
		batch := p.PredictBatch(u, items)
		if len(batch) != len(items) {
			t.Fatalf("user %d: batch length %d, want %d", u, len(batch), len(items))
		}
		for i, it := range items {
			if want := p.Predict(u, it); batch[i] != want {
				t.Errorf("user %d item %d: batch %v, sequential %v", u, it, batch[i], want)
			}
		}
	}
}

func TestPredictBatchMatchesSequential(t *testing.T) {
	s := randomStore(t, 40, 60, 600, 1)
	// Candidates include unrated items, heavily rated items, an item
	// nobody rated (fallback to global mean), and a duplicate.
	items := []dataset.ItemID{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 59, 3}
	// k runs from one neighbor past the 40 users, through room for
	// exactly every other user.
	for _, k := range []int{1, 3, 7, 39, 50} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			checkBatchMatchesSequential(t, newTestPredictor(t, s, k), s.Users(), items)
		})
	}
}

func TestPredictBatchEmptyAndMissingUser(t *testing.T) {
	s := randomStore(t, 10, 10, 50, 2)
	p, err := NewPredictor(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PredictBatch(0, nil); len(got) != 0 {
		t.Errorf("empty batch returned %d values", len(got))
	}
	// A user absent from the store gets fallback predictions, same as
	// Predict.
	ghost := dataset.UserID(999)
	items := []dataset.ItemID{0, 1, 2}
	batch := p.PredictBatch(ghost, items)
	for i, it := range items {
		if want := p.Predict(ghost, it); batch[i] != want {
			t.Errorf("ghost user item %d: batch %v, sequential %v", it, batch[i], want)
		}
	}
}

// TestConcurrentPredictors hammers the predictor from many goroutines;
// run under -race this is the preference-layer data-race check.
func TestConcurrentPredictors(t *testing.T) {
	s := randomStore(t, 30, 40, 400, 6)
	p := newTestPredictor(t, s, 5)
	items := []dataset.ItemID{0, 3, 7, 11, 19, 23, 31, 39}
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < 50; n++ {
				u := dataset.UserID((g*7 + n) % 30)
				batch := p.PredictBatch(u, items)
				for i, it := range items {
					if want := p.Predict(u, it); batch[i] != want {
						t.Errorf("concurrent mismatch user %d item %d", u, it)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
