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
// counts exactly one miss per distinct user and hits thereafter, and
// that the time-weighted wrapper reports the same (shared) cache.
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

	tw, err := NewTimeWeightedPredictor(pred, 0)
	if err != nil {
		t.Fatalf("building time-weighted predictor: %v", err)
	}
	if tw.Stats() != pred.Stats() {
		t.Errorf("time-weighted stats %+v diverge from base %+v", tw.Stats(), pred.Stats())
	}
}

// TestItemPredictorCounters asserts the item-neighborhood cache counts
// per distinct item.
func TestItemPredictorCounters(t *testing.T) {
	store := statsStore(t)
	ip, err := NewItemPredictor(store, 10)
	if err != nil {
		t.Fatalf("building item predictor: %v", err)
	}
	users := store.Users()
	items := store.Items()

	// A batch over 5 candidates resolves each unrated candidate's
	// neighborhood once (rated candidates short-circuit); a second
	// identical batch hits for every neighborhood the first resolved.
	ip.PredictBatch(users[0], items[:5])
	first := ip.Stats()
	if first.Hits != 0 {
		t.Fatalf("hits after first batch = %d, want 0", first.Hits)
	}
	if first.Misses != uint64(first.Size) {
		t.Fatalf("misses %d != cached neighborhoods %d", first.Misses, first.Size)
	}
	ip.PredictBatch(users[0], items[:5])
	second := ip.Stats()
	if second.Misses != first.Misses {
		t.Errorf("second identical batch added misses: %d -> %d", first.Misses, second.Misses)
	}
	if second.Hits != first.Misses {
		t.Errorf("second batch hits = %d, want %d", second.Hits, first.Misses)
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
