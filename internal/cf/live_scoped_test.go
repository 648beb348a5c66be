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

// coraterBits builds the co-rater set a fill of p would record for the
// given users.
func coraterBits(t *testing.T, p *Predictor, users ...dataset.UserID) userBits {
	t.Helper()
	co := make(userBits, (len(p.users.ids)+63)>>6)
	for _, u := range users {
		i, ok := p.users.of(u)
		if !ok {
			t.Fatalf("user %d is not in the predictor's index", u)
		}
		co.set(i)
	}
	return co
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
	p.NoteIngestScoped(0, 3)

	for u, want := range map[dataset.UserID]bool{0: false, 1: false, 2: false, 3: true, 4: true} {
		if got := cached(p, u); got != want {
			t.Errorf("user %d resident after the ingest = %v, want %v", u, got, want)
		}
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
// candidate walk: no cached co-rater set names the rater for a user it
// never co-rated with, but an ingest on that user's item
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
	// the cache does not, and its co-rater set goes nowhere.
	if got := p.finishFill(3, preIngest, coraterBits(t, p, 4), epoch); !reflect.DeepEqual(got, preIngest) {
		t.Errorf("fenced fill returned %v, want its own %v", got, preIngest)
	}
	if st := p.Stats(); st.Size != 0 {
		t.Errorf("fenced fill was cached: %d resident neighborhoods", st.Size)
	}
	if got := p.dependentsOf(4); got != nil {
		t.Errorf("fenced fill left a dependency record behind: dependentsOf(4) = %v", got)
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
// every resident neighborhood counts as invalidated, nothing is
// retained, and no dependency record outlives its neighborhood.
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
	for _, u := range s.Users() {
		if got := p.dependentsOf(u); got != nil {
			t.Fatalf("dependency records survived NoteIngest: dependentsOf(%d) = %v", u, got)
		}
	}
}

// TestOverlappingFillsShareOneDependencyRecord pins what the counted
// edges of the retired reverse index protected: of two overlapping fills
// of one user, the loser's end must not strip the winner's dependency
// record, and dropping the neighborhood removes the record entirely.
func TestOverlappingFillsShareOneDependencyRecord(t *testing.T) {
	s := scopedStore(t)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Two fills of u0 begin at the same epoch, as two concurrent first
	// Neighbors(0) calls would.
	epoch := p.part(0).epoch.Load()
	nsA, coA := p.fill(0)
	nsB, coB := p.fill(0)
	gotA := p.finishFill(0, nsA, coA, epoch)
	gotB := p.finishFill(0, nsB, coB, epoch) // loses to the cached entry
	if &gotA[0] != &gotB[0] {
		t.Errorf("the losing fill did not return the canonical cached slice")
	}
	for _, w := range []dataset.UserID{1, 2} {
		if got := p.dependentsOf(w); len(got) != 1 || got[0] != 0 {
			t.Errorf("dependentsOf(%d) = %v after the losing fill ended, want [0]", w, got)
		}
	}
	for _, w := range []dataset.UserID{0, 3, 4, 9} {
		if got := p.dependentsOf(w); got != nil {
			t.Errorf("dependentsOf(%d) = %v, want none: u0 shares no item with it", w, got)
		}
	}
	if !p.dropNeighborhood(0) {
		t.Fatalf("u0's neighborhood was not resident")
	}
	for _, w := range []dataset.UserID{1, 2} {
		if got := p.dependentsOf(w); got != nil {
			t.Errorf("dependentsOf(%d) = %v after the drop, want none", w, got)
		}
	}
}

// TestRestoreNeighborhoodsSurviveUnrelatedIngest pins the warm-restart
// contract: a restored neighborhood gets its co-rater set recomputed at
// restore time, so a scoped ingest treats it like a filled one — a
// rating that reaches neither restored user retains both, one that
// reaches one drops exactly it.
func TestRestoreNeighborhoodsSurviveUnrelatedIngest(t *testing.T) {
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
	if got := cold.dependentsOf(4); len(got) != 1 || got[0] != 3 {
		t.Errorf("dependentsOf(4) = %v after the restore, want [3]", got)
	}

	applyRating(t, s, 0, 3, 5) // reaches neither u3 nor u4
	cold.NoteIngestScoped(0, 3)
	if st := cold.Stats(); st.Invalidated != 0 || st.Retained != 2 {
		t.Errorf("unrelated ingest: %d dropped / %d retained, want 0 / 2", st.Invalidated, st.Retained)
	}

	applyRating(t, s, 9, 11, 4) // u9's first overlap with u4; none with u3
	cold.NoteIngestScoped(9, 11)
	// The counters accumulate: this ingest drops 1 and retains 1.
	if st := cold.Stats(); st.Invalidated != 1 || st.Retained != 3 {
		t.Errorf("ingest reaching u4: %d dropped / %d retained in total, want 1 / 3", st.Invalidated, st.Retained)
	}
	if !cached(cold, 3) || cached(cold, 4) {
		t.Errorf("after the ingest reaching u4: u3 resident = %v, u4 resident = %v; want true, false",
			cached(cold, 3), cached(cold, 4))
	}

	fresh, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []dataset.UserID{0, 1, 2, 3, 4} {
		if got, want := cold.Neighbors(u), fresh.Neighbors(u); !reflect.DeepEqual(got, want) {
			t.Errorf("post-ingest Neighbors(%d) = %v, want cold %v", u, got, want)
		}
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

// TestTimeWeightedAdvance pins the clock contract: an older rating
// leaves the reference timestamp intact; a newer one moves it.
func TestTimeWeightedAdvance(t *testing.T) {
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
	tw.Advance(150)
	if tw.Now() != 200 {
		t.Errorf("Now = %d, want 200", tw.Now())
	}
	if err := s.Apply(dataset.Rating{User: 1, Item: 2, Value: 5, Time: 300}); err != nil {
		t.Fatal(err)
	}
	tw.Advance(300)
	if tw.Now() != 300 {
		t.Errorf("Now = %d, want 300", tw.Now())
	}
}

// TestTimeWeightedAdvanceMatchesRescan holds the incremental clock to
// the construction scan: after each of 500 ratings with non-monotone
// times, Now equals that of a predictor built fresh over the store.
func TestTimeWeightedAdvanceMatchesRescan(t *testing.T) {
	s := randomStore(t, 30, 40, 400, 12)
	base, err := NewPredictor(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	tw, err := NewTimeWeightedPredictor(base, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for n := 0; n < 500; n++ {
		r := dataset.Rating{
			User:  dataset.UserID(rng.Intn(30)),
			Item:  s.Items()[rng.Intn(len(s.Items()))],
			Value: float64(1 + rng.Intn(5)),
			Time:  rng.Int63n(3_000_000), // the store's own times end at 1 000 000
		}
		if err := s.Apply(r); err != nil {
			t.Fatal(err)
		}
		tw.Advance(r.Time)
		fresh, err := NewTimeWeightedPredictor(base, 0)
		if err != nil {
			t.Fatal(err)
		}
		if tw.Now() != fresh.Now() {
			t.Fatalf("rating %d (time %d): Now = %d, fresh predictor %d", n, r.Time, tw.Now(), fresh.Now())
		}
	}
}

// TestScopedIngestRace hammers concurrent neighborhood fills against
// serialized scoped ingests, then checks every surviving and rebuilt
// neighborhood against a cold predictor — the epoch fence and the
// co-rater set installed with each neighborhood must never let a
// pre-ingest fill or a missed dependency survive. Run with -race.
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
