package cf

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// scopedStore is the hand-built fixture of the scoped-invalidation
// tests, with fully controlled co-rating structure:
//
//	u0 rates {1, 2}         — the rater in most scenarios
//	u1 rates {1, 3}         — co-rates item 1 with u0
//	u2 rates {2, 4}         — co-rates item 2 with u0
//	u3 rates {10}           — disjoint from u0
//	u4 rates {10, 11}       — co-rates item 10 with u3, disjoint from u0
//	u9 rates {5}            — gives item 5 a mean without touching others
func scopedStore(t *testing.T) *dataset.Store {
	t.Helper()
	return buildStore(t, [][3]float64{
		{0, 1, 4}, {0, 2, 3},
		{1, 1, 5}, {1, 3, 2},
		{2, 2, 4}, {2, 4, 5},
		{3, 10, 4},
		{4, 10, 5}, {4, 11, 3},
		{9, 5, 2},
	})
}

// applyRating pushes one rating into the frozen store's delta overlay.
func applyRating(t *testing.T, s *dataset.Store, u dataset.UserID, it dataset.ItemID, v float64) {
	t.Helper()
	if err := s.Apply(dataset.Rating{User: u, Item: it, Value: v, Time: 1}); err != nil {
		t.Fatalf("Apply(%d,%d,%g): %v", u, it, v, err)
	}
}

// warmNeighbors fills and returns the cached neighborhoods of users.
func warmNeighbors(p *Predictor, users ...dataset.UserID) map[dataset.UserID][]Neighbor {
	out := make(map[dataset.UserID][]Neighbor, len(users))
	for _, u := range users {
		out[u] = p.Neighbors(u)
	}
	return out
}

// cached reports whether u's neighborhood is resident, without filling
// it.
func cached(p *Predictor, u dataset.UserID) bool {
	sh := &p.part(u).shards[shardIndex(uint64(u))]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.neighbors[u]
	return ok
}

// TestNoteIngestScopedRetainsIndependentNeighborhoods pins the core
// retention contract: an ingest by u0 drops u0 and the dependents whose
// top-k contains u0, retains the users that share no item with u0 —
// bit-identical to a cold rebuild — and counts both outcomes exactly.
func TestNoteIngestScopedRetainsIndependentNeighborhoods(t *testing.T) {
	s := scopedStore(t)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	warm := warmNeighbors(p, 0, 1, 2, 3, 4)

	applyRating(t, s, 0, 3, 5) // u0 rates item 3 (co-rated by u1)
	scope := p.NoteIngestScoped(0, 3)

	for u, want := range map[dataset.UserID]bool{0: false, 1: false, 2: false, 3: true, 4: true} {
		if got := cached(p, u); got != want {
			t.Errorf("user %d resident after the ingest = %v, want %v", u, got, want)
		}
	}
	if scope.Dropped != 3 || scope.Retained != 2 {
		t.Errorf("scope = %d dropped / %d retained, want 3 / 2", scope.Dropped, scope.Retained)
	}
	st := p.Stats()
	if st.Invalidated != 3 || st.Retained != 2 || st.Size != 2 {
		t.Errorf("stats = %d invalidated / %d retained / %d resident, want 3 / 2 / 2", st.Invalidated, st.Retained, st.Size)
	}

	// The retained neighborhoods are the untouched cached slices.
	for _, u := range []dataset.UserID{3, 4} {
		if got := p.Neighbors(u); !reflect.DeepEqual(got, warm[u]) {
			t.Errorf("retained Neighbors(%d) changed: %v != %v", u, got, warm[u])
		}
	}

	// Differential: every user's neighborhood — retained or rebuilt —
	// must match a cold predictor over the extended dataset.
	cold, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []dataset.UserID{0, 1, 2, 3, 4} {
		if got, want := p.Neighbors(u), cold.Neighbors(u); !reflect.DeepEqual(got, want) {
			t.Errorf("post-ingest Neighbors(%d) = %v, want cold %v", u, got, want)
		}
	}
}

// TestNoteIngestScopedDropsNewlyEnteringRater pins the raters-of-item
// candidate walk: the reverse index has no edge between the rater and a
// user it never co-rated with, but an ingest on that user's item
// creates the first overlap — the rater now ranks into the cached
// top-k, so the neighborhood must drop.
func TestNoteIngestScopedDropsNewlyEnteringRater(t *testing.T) {
	s := scopedStore(t)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	warmNeighbors(p, 3, 4)

	applyRating(t, s, 0, 10, 5) // u0's first overlap with u3 and u4
	p.NoteIngestScoped(0, 10)

	for _, u := range []dataset.UserID{3, 4} {
		if cached(p, u) {
			t.Errorf("user %d still resident after the rater entered its neighborhood", u)
		}
	}
	cold, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []dataset.UserID{3, 4} {
		if got, want := p.Neighbors(u), cold.Neighbors(u); !reflect.DeepEqual(got, want) {
			t.Errorf("post-ingest Neighbors(%d) = %v, want cold %v", u, got, want)
		}
	}
}

// TestNoteIngestScopedFencesStraddlingFills pins the epoch fence: a
// neighborhood fill in flight when a rating lands hands its caller what
// it computed — whatever that caller builds on it is the caller's to
// drop, which the list store does by dropping every view — and is kept
// out of the cache, so the next lookup computes post-ingest state.
func TestNoteIngestScopedFencesStraddlingFills(t *testing.T) {
	s := scopedStore(t)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	// u3 shares no item with the rater u0: cached, its neighborhood is
	// retained without a recheck. Here its fill is in flight instead,
	// begun the way Neighbors begins one, before the rating lands.
	epoch := p.part(3).epoch.Load()
	preIngest := []Neighbor{{User: 4, Sim: 1}}

	applyRating(t, s, 0, 3, 5)
	p.NoteIngestScoped(0, 3)

	// The fill ends after the ingest: its caller gets what it computed,
	// the cache does not, and its reverse-index edges are released.
	if got := p.finishFill(3, preIngest, []dataset.UserID{4}, epoch); !reflect.DeepEqual(got, preIngest) {
		t.Errorf("fenced fill returned %v, want its own %v", got, preIngest)
	}
	if st := p.Stats(); st.Size != 0 {
		t.Errorf("fenced fill was cached: %d resident neighborhoods", st.Size)
	}
	if got := p.deps.dependentsOf(4); got != nil {
		t.Errorf("fenced fill left reverse-index edges behind: dependentsOf(4) = %v", got)
	}
	cold, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Neighbors(3), cold.Neighbors(3); !reflect.DeepEqual(got, want) {
		t.Errorf("post-fence Neighbors(3) = %v, want cold %v", got, want)
	}
}

// TestNoteIngestScopedRetainsWhenRaterDoesNotRank pins the recheck's
// retain verdict: a dependent whose top-k is full of strictly better
// similarities keeps its neighborhood even though the rater's
// similarity to it changed.
func TestNoteIngestScopedRetainsWhenRaterDoesNotRank(t *testing.T) {
	// u5 and u6 are identical twins (sim 1); u0 overlaps u5 weakly.
	s := buildStore(t, [][3]float64{
		{0, 1, 1},
		{5, 20, 4}, {5, 21, 3}, {5, 1, 1},
		{6, 20, 4}, {6, 21, 3}, {6, 1, 1},
	})
	p, err := NewPredictor(s, 1) // top-1 neighborhoods
	if err != nil {
		t.Fatal(err)
	}
	before := p.Neighbors(5)
	if len(before) != 1 || before[0].User != 6 {
		t.Fatalf("Neighbors(5) = %v, want the identical twin u6", before)
	}

	applyRating(t, s, 0, 21, 5) // changes sim(5, 0), but below the twin's 1.0
	scope := p.NoteIngestScoped(0, 21)
	if !cached(p, 5) {
		t.Errorf("u5 dropped although the rater cannot enter its top-1")
	}
	if scope.Retained == 0 {
		t.Errorf("scope retained nothing; want u5's neighborhood kept")
	}
	cold, err := NewPredictor(s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Neighbors(5), cold.Neighbors(5); !reflect.DeepEqual(got, want) {
		t.Errorf("retained Neighbors(5) = %v, want cold %v", got, want)
	}
}

// TestNoteIngestFullDropsEverything pins the legacy path's accounting:
// every resident neighborhood counts as invalidated, nothing is
// retained, and the reverse dependency index is reset with the cache.
func TestNoteIngestFullDropsEverything(t *testing.T) {
	s := scopedStore(t)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	warmNeighbors(p, 0, 1, 2, 3, 4)

	applyRating(t, s, 0, 3, 5)
	p.NoteIngest(0)

	st := p.Stats()
	if st.Invalidated != 5 || st.Retained != 0 || st.Size != 0 {
		t.Errorf("stats = %d invalidated / %d retained / %d resident, want 5 / 0 / 0", st.Invalidated, st.Retained, st.Size)
	}
	for i := range p.deps.stripes {
		stripe := &p.deps.stripes[i]
		stripe.mu.Lock()
		n := len(stripe.deps)
		stripe.mu.Unlock()
		if n != 0 {
			t.Fatalf("reverse index not reset after NoteIngest: stripe %d holds %d edges", i, n)
		}
	}
}

// TestDepIndexRefcounts pins the counted-edge semantics: two fills
// holding the same edge survive one rollback, and a full release
// removes the entry entirely.
func TestDepIndexRefcounts(t *testing.T) {
	var d depIndex
	d.init()
	d.add(7, []dataset.UserID{1, 2})
	d.add(7, []dataset.UserID{1}) // overlapping fill of the same dependent
	d.remove(7, []dataset.UserID{1})
	if got := d.dependentsOf(1); len(got) != 1 || got[0] != 7 {
		t.Errorf("dependentsOf(1) = %v after one rollback, want [7]", got)
	}
	d.remove(7, []dataset.UserID{1, 2})
	if got := d.dependentsOf(1); got != nil {
		t.Errorf("dependentsOf(1) = %v after full release, want none", got)
	}
	if got := d.dependentsOf(2); got != nil {
		t.Errorf("dependentsOf(2) = %v after full release, want none", got)
	}
}

// TestRestoreNeighborhoodsDroppedOnFirstScopedIngest pins the
// conservative warm-restart contract: restored neighborhoods carry no
// dependency metadata, so the first scoped ingest drops them all.
func TestRestoreNeighborhoodsDroppedOnFirstScopedIngest(t *testing.T) {
	s := scopedStore(t)
	warmP, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	warmNeighbors(warmP, 3, 4)
	exported := warmP.ExportNeighborhoods()

	cold, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if n := cold.RestoreNeighborhoods(exported); n != 2 {
		t.Fatalf("restored %d neighborhoods, want 2", n)
	}

	applyRating(t, s, 0, 3, 5) // reaches neither u3 nor u4
	scope := cold.NoteIngestScoped(0, 3)
	if scope.Dropped != 2 {
		t.Errorf("first scoped ingest dropped %d, want the 2 dep-less restored entries", scope.Dropped)
	}
	if got := cold.CachedNeighborhoods(); got != 0 {
		t.Errorf("%d neighborhoods resident after the first scoped ingest, want 0", got)
	}
	// Rebuilt entries are dependency-tracked again: a second unrelated
	// ingest retains them.
	warmNeighbors(cold, 3, 4)
	applyRating(t, s, 0, 2, 2)
	scope = cold.NoteIngestScoped(0, 2)
	if scope.Retained != 2 {
		t.Errorf("second ingest retained %d, want the 2 rebuilt neighborhoods", scope.Retained)
	}
}

// TestItemPredictorNoteIngestScoped pins the item-side scoping: stale
// item neighborhoods are exactly the rater's rated items.
func TestItemPredictorNoteIngestScoped(t *testing.T) {
	s := scopedStore(t)
	p, err := NewItemPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []dataset.ItemID{1, 2, 10} {
		p.itemNeighborsOf(it)
	}

	applyRating(t, s, 0, 3, 5) // u0 now rates {1, 2, 3}
	p.NoteIngestScoped(0)

	st := p.Stats()
	if st.Invalidated != 2 || st.Retained != 1 || st.Size != 1 {
		t.Errorf("stats = %d invalidated / %d retained / %d resident, want 2 / 1 / 1", st.Invalidated, st.Retained, st.Size)
	}
	cold, err := NewItemPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range []dataset.ItemID{1, 2, 3, 10} {
		if got, want := p.itemNeighborsOf(it), cold.itemNeighborsOf(it); !reflect.DeepEqual(got, want) {
			t.Errorf("post-ingest item neighbors(%d) = %v, want cold %v", it, got, want)
		}
	}
}

// TestTimeWeightedRefresh pins the clock contract: an older rating
// leaves the reference timestamp intact; a newer one moves it.
func TestTimeWeightedRefresh(t *testing.T) {
	s := dataset.NewStore()
	for _, r := range []dataset.Rating{
		{User: 0, Item: 1, Value: 4, Time: 100},
		{User: 1, Item: 1, Value: 3, Time: 200},
		{User: 2, Item: 2, Value: 1, Time: 50},
	} {
		if err := s.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	s.Freeze()
	base, err := NewPredictor(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewTimeWeightedPredictor(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(dataset.Rating{User: 0, Item: 2, Value: 5, Time: 150}); err != nil {
		t.Fatal(err)
	}
	tw.Refresh()
	if tw.Now() != 200 {
		t.Errorf("Now = %d, want 200", tw.Now())
	}
	if err := s.Apply(dataset.Rating{User: 1, Item: 2, Value: 5, Time: 300}); err != nil {
		t.Fatal(err)
	}
	tw.Refresh()
	if tw.Now() != 300 {
		t.Errorf("Now = %d, want 300", tw.Now())
	}
}

// TestScopedIngestRace hammers concurrent neighborhood fills against
// serialized scoped ingests, then checks every surviving and rebuilt
// neighborhood against a cold predictor — the epoch fence and the
// dep-edge insert/rollback protocol must never let a pre-ingest fill
// or a missed dependency survive. Run with -race.
func TestScopedIngestRace(t *testing.T) {
	s := randomStore(t, 40, 30, 500, 7)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	users := s.Users()
	items := s.Items()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				p.Neighbors(users[rng.Intn(len(users))])
			}
		}(int64(g))
	}
	rng := rand.New(rand.NewSource(99))
	var mu sync.Mutex // the world's ingest lock, simulated
	for i := 0; i < 60; i++ {
		u := users[rng.Intn(len(users))]
		it := items[rng.Intn(len(items))]
		mu.Lock()
		if err := s.Apply(dataset.Rating{User: u, Item: it, Value: float64(1 + rng.Intn(5)), Time: 1}); err != nil {
			mu.Unlock()
			t.Fatal(err)
		}
		p.NoteIngestScoped(u, it)
		mu.Unlock()
	}
	close(stop)
	wg.Wait()

	cold, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range users {
		if got, want := p.Neighbors(u), cold.Neighbors(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("Neighbors(%d) diverged after concurrent ingest: %v != %v", u, got, want)
		}
	}
}
