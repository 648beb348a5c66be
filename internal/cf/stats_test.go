package cf

import (
	"sync"
	"testing"

	"repro/internal/dataset"
)

// statsStore builds a small frozen store shared by the counter tests.
func statsStore(t testing.TB) *dataset.Store {
	t.Helper()
	cfg := dataset.DefaultSynthConfig()
	cfg.Users = 40
	cfg.Items = 60
	cfg.TargetRatings = 1200
	sy, err := dataset.Generate(cfg)
	if err != nil {
		t.Fatalf("generating store: %v", err)
	}
	return sy.Store
}

// TestPredictorCounters asserts the user-based neighborhood cache
// counts exactly one miss per distinct user and hits thereafter.
func TestPredictorCounters(t *testing.T) {
	store := statsStore(t)
	pred, err := NewPredictor(store, 10)
	if err != nil {
		t.Fatalf("building predictor: %v", err)
	}
	users := store.Users()

	pred.Neighbors(users[0])
	pred.Neighbors(users[0])
	pred.Neighbors(users[1])
	pred.Neighbors(users[0])

	got := pred.Stats()
	want := CacheStats{Hits: 2, Misses: 2, Size: 2}
	if got != want {
		t.Fatalf("stats = %+v, want %+v", got, want)
	}
}

// TestCacheCountersRace hammers the neighborhood cache from many
// goroutines; with -race this proves the counters are data-race free,
// and the totals must still conserve (every lookup is a hit or a miss).
func TestCacheCountersRace(t *testing.T) {
	store := statsStore(t)
	pred, err := NewPredictor(store, 10)
	if err != nil {
		t.Fatalf("building predictor: %v", err)
	}
	users := store.Users()
	items := store.Items()

	const (
		workers = 8
		rounds  = 200
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				u := users[(w+r)%len(users)]
				off := (w * r) % 30
				pred.PredictBatch(u, items[off:off+8])
				pred.Neighbors(u)
				_ = pred.Stats()
			}
		}(w)
	}
	wg.Wait()

	ps := pred.Stats()
	if ps.Hits+ps.Misses < workers*rounds {
		// PredictBatch also resolves neighborhoods, so the total is at
		// least the explicit Neighbors calls.
		t.Errorf("neighborhood lookups %d < %d explicit calls", ps.Hits+ps.Misses, workers*rounds)
	}
	if ps.Size > len(users) {
		t.Errorf("neighborhood cache size %d exceeds population %d", ps.Size, len(users))
	}
}
