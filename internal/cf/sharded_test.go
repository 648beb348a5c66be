package cf

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/shard"
)

// ratedStore builds a deterministic store wide enough that every test
// shard sees users.
func ratedStore(t *testing.T) *dataset.Store {
	t.Helper()
	s := dataset.NewStore()
	for u := 0; u < 16; u++ {
		for it := 0; it < 6; it++ {
			if (u+it)%3 == 0 {
				continue
			}
			r := dataset.Rating{User: dataset.UserID(u), Item: dataset.ItemID(it), Value: float64(1 + (u*it)%5), Time: int64(u + it)}
			if err := s.Add(r); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
	}
	s.Freeze()
	return s
}

// TestPredictorShardedIdentical: SetSharding repartitions the lazy
// caches without changing a single prediction, and the per-shard
// counters sum to the aggregate.
func TestPredictorShardedIdentical(t *testing.T) {
	store := ratedStore(t)
	plain, err := NewPredictor(store, 5)
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	sharded, err := NewPredictor(store, 5)
	if err != nil {
		t.Fatalf("NewPredictor: %v", err)
	}
	m, _ := shard.New(4)
	sharded.SetSharding(m)

	items := store.Items()
	for _, u := range store.Users() {
		if !reflect.DeepEqual(plain.Neighbors(u), sharded.Neighbors(u)) {
			t.Fatalf("user %d: neighborhoods diverge", u)
		}
		if !reflect.DeepEqual(plain.PredictBatch(u, items), sharded.PredictBatch(u, items)) {
			t.Fatalf("user %d: batch predictions diverge", u)
		}
	}
	agg := sharded.Stats()
	var hits, misses uint64
	size := 0
	shardsHit := 0
	for _, ps := range sharded.StatsByShard() {
		hits += ps.Hits
		misses += ps.Misses
		size += ps.Size
		if ps.Hits+ps.Misses > 0 {
			shardsHit++
		}
	}
	if hits != agg.Hits || misses != agg.Misses || size != agg.Size {
		t.Errorf("per-shard sums h%d m%d s%d != aggregate %+v", hits, misses, size, agg)
	}
	if shardsHit < 2 {
		t.Errorf("traffic touched %d shards; the partitioning is vacuous", shardsHit)
	}
}

// TestItemPredictorShardedIdentical mirrors the user-based test on the
// item-keyed cache.
func TestItemPredictorShardedIdentical(t *testing.T) {
	store := ratedStore(t)
	plain, err := NewItemPredictor(store, 4)
	if err != nil {
		t.Fatalf("NewItemPredictor: %v", err)
	}
	sharded, err := NewItemPredictor(store, 4)
	if err != nil {
		t.Fatalf("NewItemPredictor: %v", err)
	}
	m, _ := shard.New(4)
	sharded.SetSharding(m)
	items := store.Items()
	for _, u := range store.Users() {
		if !reflect.DeepEqual(plain.PredictBatch(u, items), sharded.PredictBatch(u, items)) {
			t.Fatalf("user %d: item-based predictions diverge", u)
		}
	}
	agg := sharded.Stats()
	var hits, misses uint64
	for _, ps := range sharded.StatsByShard() {
		hits += ps.Hits
		misses += ps.Misses
	}
	if hits != agg.Hits || misses != agg.Misses {
		t.Errorf("per-shard sums h%d m%d != aggregate %+v", hits, misses, agg)
	}
}
