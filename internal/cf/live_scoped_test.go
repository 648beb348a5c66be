package cf

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
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

// applyRating folds one rating into the frozen store.
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
	sh := p.stripe(u)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.neighbors[u]
	return ok
}

// TestNoteIngestScopedRetainsIndependentNeighborhoods pins the core
// retention contract: an ingest by u0 drops u0's own neighborhood,
// repairs the dependents that co-rate with u0, leaves the users that
// share no item with u0 untouched — all bit-identical to a cold rebuild
// — and counts a repaired neighborhood as retained.
func TestNoteIngestScopedRetainsIndependentNeighborhoods(t *testing.T) {
	s := scopedStore(t)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	warm := warmNeighbors(p, 0, 1, 2, 3, 4)

	applyRating(t, s, 0, 3, 5) // u0 rates item 3 (co-rated by u1)
	p.NoteIngestScoped(0, 3)

	for u, want := range map[dataset.UserID]bool{0: false, 1: true, 2: true, 3: true, 4: true} {
		if got := cached(p, u); got != want {
			t.Errorf("user %d resident after the ingest = %v, want %v", u, got, want)
		}
	}
	st := p.Stats()
	if st.Invalidated != 1 || st.Retained != 4 || st.Size != 4 {
		t.Errorf("stats = %d invalidated / %d retained / %d resident, want 1 / 4 / 4", st.Invalidated, st.Retained, st.Size)
	}
	if got := p.work.repaired.Load(); got != 2 {
		t.Errorf("%d neighborhoods repaired, want 2 (u1 and u2 co-rate with u0)", got)
	}

	// The neighborhoods the rating does not reach are the untouched
	// cached slices.
	for _, u := range []dataset.UserID{3, 4} {
		if got := p.Neighbors(u); !reflect.DeepEqual(got, warm[u]) {
			t.Errorf("retained Neighbors(%d) changed: %v != %v", u, got, warm[u])
		}
	}

	// Differential: every user's neighborhood — repaired, untouched or
	// rebuilt — must match a cold predictor over the extended dataset.
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

// TestNoteIngestScopedInsertsNewlyEnteringRater pins the repair of a
// first overlap: the rater shared no item with u3 or u4 before the
// rating, which creates one — the walk of the rater's lists reaches both
// cached neighborhoods, and the rater is inserted at its cold rank.
func TestNoteIngestScopedInsertsNewlyEnteringRater(t *testing.T) {
	s := scopedStore(t)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	warm := warmNeighbors(p, 3, 4)

	applyRating(t, s, 0, 10, 5) // u0's first overlap with u3 and u4
	p.NoteIngestScoped(0, 10)

	cold, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []dataset.UserID{3, 4} {
		if !cached(p, u) {
			t.Fatalf("user %d dropped although the rater's rank in it is known", u)
		}
		got := p.Neighbors(u)
		if len(got) != len(warm[u])+1 || !slices.ContainsFunc(got, func(nb Neighbor) bool { return nb.User == 0 }) {
			t.Errorf("Neighbors(%d) = %v, want %v with u0 inserted", u, got, warm[u])
		}
		if want := cold.Neighbors(u); !reflect.DeepEqual(got, want) {
			t.Errorf("post-ingest Neighbors(%d) = %v, want cold %v", u, got, want)
		}
	}
	if st := p.Stats(); st.Invalidated != 0 || st.Retained != 2 {
		t.Errorf("stats = %d invalidated / %d retained, want 0 / 2", st.Invalidated, st.Retained)
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
	// left untouched. Here its fill is in flight instead,
	// begun the way Neighbors begins one, before the rating lands.
	epoch := p.epoch.Load()
	preIngest := []Neighbor{{User: 4, Sim: 1}}

	applyRating(t, s, 0, 3, 5)
	p.NoteIngestScoped(0, 3)

	// The fill ends after the ingest: its caller gets what it computed,
	// the cache does not.
	if got := p.finishFill(3, neighborhood{ns: preIngest, complete: true}, epoch); !reflect.DeepEqual(got, preIngest) {
		t.Errorf("fenced fill returned %v, want its own %v", got, preIngest)
	}
	if st := p.Stats(); st.Size != 0 {
		t.Errorf("fenced fill was cached: %d resident neighborhoods", st.Size)
	}
	cold, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.Neighbors(3), cold.Neighbors(3); !reflect.DeepEqual(got, want) {
		t.Errorf("post-fence Neighbors(3) = %v, want cold %v", got, want)
	}
}

// TestNormInstallIsFenced pins the norm table's fence: a norm computed
// before an ingest bumps the epochs is never installed, and the next
// read recomputes the norm from the post-ingest row.
func TestNormInstallIsFenced(t *testing.T) {
	s := scopedStore(t)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	ui, _ := p.users.Pos(0)
	// A norm read begun before the rating: epoch taken, value computed.
	epoch := p.epoch.Load()
	preIngest := math.Sqrt(4*4 + 3*3)

	applyRating(t, s, 0, 3, 5)
	p.NoteIngestScoped(0, 3)
	// The ingest's repairs cached the fresh norm; empty the slot again so
	// that only the stale install below could fill it.
	p.normBits[ui].Store(0)

	p.installNorm(0, ui, preIngest, epoch)
	if b := p.normBits[ui].Load(); b != 0 {
		t.Fatalf("a norm computed before the ingest was installed: slot %x", b)
	}
	want := math.Sqrt(4*4 + 3*3 + 5*5)
	if got := p.norm(0); got != want {
		t.Fatalf("norm(0) after the ingest = %v, want %v", got, want)
	}
	if got := -math.Float64frombits(p.normBits[ui].Load()); got != want {
		t.Fatalf("cached norm after the ingest = %v, want %v", got, want)
	}
}

// TestCachedNormsMatchRecompute applies 200 scoped ingests, each
// followed by a fill that caches the norms of the rater's co-raters,
// and then holds every cached slot to Σv² over the user's current row,
// bit for bit.
func TestCachedNormsMatchRecompute(t *testing.T) {
	s := randomStore(t, 40, 30, 500, 23)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	users, items := s.Users(), s.Items()
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		u, it := users[rng.Intn(len(users))], items[rng.Intn(len(items))]
		applyRating(t, s, u, it, float64(1+rng.Intn(5)))
		p.NoteIngestScoped(u, it)
		p.Neighbors(users[rng.Intn(len(users))])
	}
	checked := 0
	for ui, u := range p.store.Users() {
		b := p.normBits[ui].Load()
		if b == 0 {
			continue
		}
		checked++
		var ss float64
		for _, r := range s.ByUser(u) {
			ss += r.Value * r.Value
		}
		if want := math.Float64bits(-math.Sqrt(ss)); b != want {
			t.Errorf("cached norm of user %d = %x, recomputed %x", u, b, want)
		}
	}
	if checked == 0 {
		t.Fatal("no norm was cached")
	}
}

// TestNoteIngestScopedRetainsWhenRaterDoesNotRank pins a repair that
// changes nothing served: a dependent whose top-k is full of strictly
// better similarities keeps its neighborhood even though the rater's
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
	p.NoteIngestScoped(0, 21)
	if !cached(p, 5) {
		t.Errorf("u5 dropped although the rater cannot enter its top-1")
	}
	if st := p.Stats(); st.Retained == 0 {
		t.Errorf("the ingest retained nothing; want u5's neighborhood kept")
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
// every resident neighborhood counts as invalidated and nothing is
// retained.
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
}

// TestScopedIngestRace hammers concurrent neighborhood fills against
// serialized scoped ingests, then checks every surviving and rebuilt
// neighborhood against a cold predictor — the epoch fence and the
// repairs must never let a pre-ingest fill or a missed re-ranking
// survive. Run with -race.
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
