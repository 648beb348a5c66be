package liststore

import (
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/shard"
)

// TestShardedViewsIdentical: a sharded store serves exactly the views
// the unsharded one does — partitioning moves slots between sub-stores,
// never a score or a sort order.
func TestShardedViewsIdentical(t *testing.T) {
	pool := testPool(20)
	m, _ := shard.New(4)
	plain := New(&stubSource{}, pool, 64, 5)
	sharded := NewSharded(&stubSource{}, pool, 64, 5, m)
	if sharded.Sharding().N() != 4 {
		t.Fatalf("sharding N = %d, want 4", sharded.Sharding().N())
	}
	for u := dataset.UserID(0); u < 16; u++ {
		want, got := mustAcquire(plain, u), mustAcquire(sharded, u)
		if !reflect.DeepEqual(want.Scores, got.Scores) {
			t.Fatalf("user %d: sharded scores diverge", u)
		}
		if !reflect.DeepEqual(want.Sorted.Entries, got.Sorted.Entries) {
			t.Fatalf("user %d: sharded sort order diverges", u)
		}
	}
	if plain.Len() != sharded.Len() {
		t.Errorf("Len: plain %d, sharded %d", plain.Len(), sharded.Len())
	}
}

// TestShardedBudgetsAndEviction: the view budget splits across
// sub-stores (each at least 1, summing to the whole), and capacity
// pressure on one shard evicts only that shard's views.
func TestShardedBudgetsAndEviction(t *testing.T) {
	pool := testPool(8)
	m, _ := shard.New(4)
	s := NewSharded(&stubSource{}, pool, 8, 5, m)
	parts := s.StatsByShard()
	if len(parts) != 4 {
		t.Fatalf("%d shard stats, want 4", len(parts))
	}
	total := 0
	for i, ps := range parts {
		if ps.MaxUsers < 1 {
			t.Errorf("shard %d budget %d < 1", i, ps.MaxUsers)
		}
		total += ps.MaxUsers
	}
	if total != 8 {
		t.Errorf("budgets sum to %d, want 8", total)
	}

	// Saturate one shard far past its budget; the others keep their
	// views (eviction is per-shard CLOCK, not global).
	target := 0
	var victims []dataset.UserID
	for u := dataset.UserID(0); len(victims) < 10; u++ {
		if s.sm.Of(int64(u)) == target {
			victims = append(victims, u)
		}
	}
	other := dataset.UserID(0)
	for s.sm.Of(int64(other)) == target {
		other++
	}
	mustAcquire(s, other)
	for _, u := range victims {
		mustAcquire(s, u)
	}
	parts = s.StatsByShard()
	if parts[target].Evictions == 0 {
		t.Errorf("saturated shard evicted nothing: %+v", parts[target])
	}
	for i, ps := range parts {
		if i != target && ps.Evictions != 0 {
			t.Errorf("shard %d evicted %d views under another shard's pressure", i, ps.Evictions)
		}
	}
	// The untouched shard's view survives as a hit.
	hitsBefore := parts[s.sm.Of(int64(other))].ViewHits
	mustAcquire(s, other)
	if got := s.StatsByShard()[s.sm.Of(int64(other))].ViewHits; got != hitsBefore+1 {
		t.Errorf("other shard's view did not survive: hits %d -> %d", hitsBefore, got)
	}
}

// TestShardedStatsSum: aggregate Stats view counters equal the sums of
// StatsByShard.
func TestShardedStatsSum(t *testing.T) {
	m, _ := shard.New(3)
	s := NewSharded(&stubSource{}, testPool(10), 6, 5, m)
	for u := dataset.UserID(0); u < 9; u++ {
		mustAcquire(s, u)
		mustAcquire(s, u)
	}
	s.Invalidate(2)
	mustAcquire(s, 2)

	agg := s.Stats()
	var hits, builds, rebuilds, invals, evics uint64
	size := 0
	for _, ps := range s.StatsByShard() {
		hits += ps.ViewHits
		builds += ps.ViewBuilds
		rebuilds += ps.Rebuilds
		invals += ps.Invalidations
		evics += ps.Evictions
		size += ps.Size
	}
	if hits != agg.ViewHits || builds != agg.ViewBuilds || rebuilds != agg.Rebuilds ||
		invals != agg.Invalidations || evics != agg.Evictions || size != agg.Size {
		t.Errorf("per-shard sums (h%d b%d r%d i%d e%d s%d) != aggregate %+v",
			hits, builds, rebuilds, invals, evics, size, agg)
	}
	if agg.Rebuilds == 0 || agg.ViewHits == 0 {
		t.Errorf("test traffic exercised nothing: %+v", agg)
	}
}

// TestShardedInvalidateAll pins the ingest sweep across shard parts:
// every part empties, rings included, and the per-shard invalidation
// counters sum to the total.
func TestShardedInvalidateAll(t *testing.T) {
	m, err := shard.New(4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(&stubSource{}, testPool(4), 32, 5, m)
	for u := dataset.UserID(0); u < 8; u++ {
		mustAcquire(s, u)
	}
	if dropped := s.InvalidateAll(); dropped != 8 {
		t.Errorf("sharded sweep dropped %d views, want 8", dropped)
	}
	st := s.Stats()
	if st.Invalidations != 8 || st.Size != 0 {
		t.Errorf("stats = %d dropped / %d resident, want 8 / 0", st.Invalidations, st.Size)
	}
	var sum uint64
	for i, sh := range s.StatsByShard() {
		sum += sh.Invalidations
		if sh.Size != 0 || len(s.parts[i].ring) != 0 {
			t.Errorf("shard %d kept %d views (ring %v) through the sweep", i, sh.Size, s.parts[i].ring)
		}
	}
	if sum != st.Invalidations {
		t.Errorf("per-shard invalidations sum to %d, total says %d", sum, st.Invalidations)
	}
	// The next acquire of every user is a rebuild.
	for u := dataset.UserID(0); u < 8; u++ {
		mustAcquire(s, u)
	}
	if st := s.Stats(); st.Rebuilds != 8 {
		t.Errorf("rebuilds = %d after re-acquiring the 8 swept users, want 8", st.Rebuilds)
	}
}
