package dataset

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/shard"
)

// deltaBaseRatings is a deterministic base rating sequence with enough
// users and items to spread across 16 shards.
func deltaBaseRatings() []Rating {
	rng := rand.New(rand.NewSource(7))
	var recs []Rating
	for u := 0; u < 40; u++ {
		n := 3 + rng.Intn(6)
		seen := map[ItemID]bool{}
		for i := 0; i < n; i++ {
			it := ItemID(rng.Intn(60))
			if seen[it] {
				continue
			}
			seen[it] = true
			recs = append(recs, Rating{
				User:  UserID(u),
				Item:  it,
				Value: float64(1 + rng.Intn(5)),
				Time:  int64(1000*u + i),
			})
		}
	}
	return recs
}

// deltaSequence is the live-write sequence applied on top: it re-rates
// some (user, item) pairs that already exist in the base and within
// itself, exercising the stable first-wins merge rule.
func deltaSequence(base []Rating) []Rating {
	rng := rand.New(rand.NewSource(11))
	var ds []Rating
	for i := 0; i < 25; i++ {
		// Users and items are drawn from the base observations, so both
		// stay inside the frozen domains Apply enforces; every fifth
		// delta exactly duplicates an existing (user, item) pair,
		// exercising the stable first-wins merge rule.
		b := base[rng.Intn(len(base))]
		r := Rating{User: b.User, Item: b.Item, Value: float64(1 + rng.Intn(5)), Time: 99000 + int64(i)}
		if i%5 != 0 {
			r.User = base[rng.Intn(len(base))].User
		}
		ds = append(ds, r)
	}
	return ds
}

func freezeStore(t *testing.T, recs []Rating, shards int) *Store {
	t.Helper()
	s := NewStore()
	for _, r := range recs {
		mustAdd(t, s, r)
	}
	s.Freeze()
	if shards > 1 {
		m, err := shard.New(shards)
		if err != nil {
			t.Fatalf("shard.New(%d): %v", shards, err)
		}
		s.Reshard(m)
	}
	return s
}

// compareStores asserts every read path answers identically on the two
// stores. Items that delta ratings touched have a known item domain, so
// the sweep covers the whole catalog.
func compareStores(t *testing.T, tag string, want, got *Store) {
	t.Helper()
	if !reflect.DeepEqual(want.Users(), got.Users()) {
		t.Fatalf("%s: Users diverge", tag)
	}
	if !reflect.DeepEqual(want.Items(), got.Items()) {
		t.Fatalf("%s: Items diverge", tag)
	}
	for _, u := range want.Users() {
		wu, gu := want.ByUser(u), got.ByUser(u)
		if len(wu) == 0 && len(gu) == 0 {
			continue
		}
		if !reflect.DeepEqual(wu, gu) {
			t.Fatalf("%s: ByUser(%d) = %v, want %v", tag, u, gu, wu)
		}
		for _, it := range want.Items() {
			wv, wok := want.Value(u, it)
			gv, gok := got.Value(u, it)
			if wv != gv || wok != gok {
				t.Fatalf("%s: Value(%d,%d) = %v,%v want %v,%v", tag, u, it, gv, gok, wv, wok)
			}
			if want.HasRated(u, it) != got.HasRated(u, it) {
				t.Fatalf("%s: HasRated(%d,%d) diverges", tag, u, it)
			}
		}
	}
	for _, it := range want.Items() {
		wi, gi := want.ByItem(it), got.ByItem(it)
		if len(wi) == 0 && len(gi) == 0 {
			continue
		}
		if !reflect.DeepEqual(wi, gi) {
			t.Fatalf("%s: ByItem(%d) = %v, want %v", tag, it, gi, wi)
		}
		if want.ItemRatingVariance(it) != got.ItemRatingVariance(it) {
			t.Fatalf("%s: ItemRatingVariance(%d) diverges", tag, it)
		}
	}
	users := want.Users()
	for _, g := range [][]UserID{users[:1], users[3:9], users} {
		if !reflect.DeepEqual(want.GroupRatedMask(g), got.GroupRatedMask(g)) {
			t.Fatalf("%s: GroupRatedMask diverges", tag)
		}
	}
	if want.NumRatings() != got.NumRatings() {
		t.Fatalf("%s: NumRatings = %d, want %d", tag, got.NumRatings(), want.NumRatings())
	}
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Fatalf("%s: Stats = %+v, want %+v", tag, got.Stats(), want.Stats())
	}
	if !reflect.DeepEqual(want.PopularityRanked(), got.PopularityRanked()) {
		t.Fatalf("%s: PopularityRanked diverges", tag)
	}
	if !reflect.DeepEqual(want.DiversitySet(10, 30), got.DiversitySet(10, 30)) {
		t.Fatalf("%s: DiversitySet diverges", tag)
	}
}

// TestDeltaOverlayMatchesColdRebuild is the dataset-level differential
// matrix: a frozen store with live Apply deltas must answer every
// query bit-identically to a cold store built from the full base+delta
// sequence — while the deltas are pending (overlay reads) and again
// after ReFreeze folds them — at shard counts 1, 4, and 16.
func TestDeltaOverlayMatchesColdRebuild(t *testing.T) {
	base := deltaBaseRatings()
	deltas := deltaSequence(base)
	for _, n := range []int{1, 4, 16} {
		cold := freezeStore(t, append(append([]Rating{}, base...), deltas...), n)
		live := freezeStore(t, base, n)
		for _, r := range deltas {
			if err := live.Apply(r); err != nil {
				t.Fatalf("n=%d: Apply(%+v): %v", n, r, err)
			}
		}
		if got := live.PendingDeltas(); got != len(deltas) {
			t.Fatalf("n=%d: PendingDeltas = %d, want %d", n, got, len(deltas))
		}
		compareStores(t, "overlay", cold, live)

		if folded := live.ReFreeze(); folded != len(deltas) {
			t.Fatalf("n=%d: ReFreeze folded %d, want %d", n, folded, len(deltas))
		}
		if got := live.PendingDeltas(); got != 0 {
			t.Fatalf("n=%d: PendingDeltas after fold = %d, want 0", n, got)
		}
		compareStores(t, "folded", cold, live)

		st := live.DeltaStats()
		if st.Applied != int64(len(deltas)) || st.Folds != 1 || st.Folded != int64(len(deltas)) {
			t.Fatalf("n=%d: DeltaStats = %+v", n, st)
		}
	}
}

// TestReshardFoldsPendingDeltas pins that Reshard folds the overlay
// first, so the re-partitioned arenas carry the delta ratings.
func TestReshardFoldsPendingDeltas(t *testing.T) {
	base := deltaBaseRatings()
	deltas := deltaSequence(base)
	cold := freezeStore(t, append(append([]Rating{}, base...), deltas...), 4)
	live := freezeStore(t, base, 1)
	for _, r := range deltas {
		if err := live.Apply(r); err != nil {
			t.Fatalf("Apply: %v", err)
		}
	}
	m, err := shard.New(4)
	if err != nil {
		t.Fatal(err)
	}
	live.Reshard(m)
	if live.PendingDeltas() != 0 {
		t.Fatalf("PendingDeltas after Reshard = %d, want 0", live.PendingDeltas())
	}
	compareStores(t, "reshard", cold, live)
}

// TestApplyRejections pins the typed ingest errors.
func TestApplyRejections(t *testing.T) {
	s := NewStore()
	mustAdd(t, s, Rating{User: 1, Item: 10, Value: 3})
	if err := s.Apply(Rating{User: 1, Item: 10, Value: 4}); !errors.Is(err, ErrNotFrozen) {
		t.Fatalf("Apply before Freeze: %v, want ErrNotFrozen", err)
	}
	s.Freeze()
	cases := []struct {
		r    Rating
		want error
	}{
		{Rating{User: 99, Item: 10, Value: 3}, ErrUnknownUser},
		{Rating{User: 1, Item: 99, Value: 3}, ErrUnknownItem},
		{Rating{User: 1, Item: 10, Value: 0}, ErrBadValue},
		{Rating{User: 1, Item: 10, Value: 5.5}, ErrBadValue},
	}
	for _, c := range cases {
		if err := s.Apply(c.r); !errors.Is(err, c.want) {
			t.Errorf("Apply(%+v): %v, want %v", c.r, err, c.want)
		}
	}
	if s.PendingDeltas() != 0 {
		t.Fatalf("rejected ratings left %d pending deltas", s.PendingDeltas())
	}
	if err := s.Apply(Rating{User: 1, Item: 10, Value: 4, Time: 7}); err != nil {
		t.Fatalf("valid Apply: %v", err)
	}
	if s.PendingDeltas() != 1 {
		t.Fatalf("PendingDeltas = %d, want 1", s.PendingDeltas())
	}
}

// TestApplyConcurrentWithReads hammers Apply, ReFreeze, and every read
// path concurrently; run under -race this pins the lock discipline.
func TestApplyConcurrentWithReads(t *testing.T) {
	base := deltaBaseRatings()
	s := freezeStore(t, base, 4)
	users := s.Users()
	items := s.Items()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				r := Rating{
					User:  users[rng.Intn(len(users))],
					Item:  items[rng.Intn(len(items))],
					Value: float64(1 + rng.Intn(5)),
					Time:  int64(i),
				}
				if err := s.Apply(r); err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
			}
		}(int64(w))
	}
	var folderWG sync.WaitGroup
	folderWG.Add(1)
	go func() {
		defer folderWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.ReFreeze()
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 300; i++ {
				u := users[rng.Intn(len(users))]
				it := items[rng.Intn(len(items))]
				s.ByUser(u)
				s.ByItem(it)
				s.Value(u, it)
				s.HasRated(u, it)
				s.GroupRatedMask(users[:3])
				s.PopularityRanked()
				s.Stats()
				s.NumRatings()
			}
		}(int64(w))
	}
	wg.Wait()
	close(stop)
	folderWG.Wait()

	// Quiesced: base + all applied ratings are visible.
	want := len(base) + 4*200
	if got := s.NumRatings(); got != want {
		t.Fatalf("NumRatings = %d, want %d", got, want)
	}
	s.ReFreeze()
	if got := s.NumRatings(); got != want {
		t.Fatalf("NumRatings after final fold = %d, want %d", got, want)
	}
}

// TestApplyPromotesPopularityLikeFullRank holds the one-item move Apply
// makes in the popularity ranking to the full rankByPopularity sort:
// after every one of 2 400 seeded ratings — long runs of ties, one item
// rated over and over, the least popular item climbing from last place
// to first — and across the ReFreeze folds in between, the served
// ranking is the full rank of the counts a cold rebuild would see.
func TestApplyPromotesPopularityLikeFullRank(t *testing.T) {
	// 30 items; item i starts with i/3 + 1 ratings, so triples tie.
	const nItems, nUsers = 30, 10
	var recs []Rating
	for it := 0; it < nItems; it++ {
		for k := 0; k <= it/3; k++ {
			recs = append(recs, Rating{User: UserID(k % nUsers), Item: ItemID(it), Value: 3, Time: int64(len(recs))})
		}
	}
	s := freezeStore(t, recs, 4)
	counts := make(map[ItemID]int)
	for _, r := range recs {
		counts[r.Item]++
	}
	check := func(step int, what string) {
		t.Helper()
		want := rankByPopularity(s.Items(), func(it ItemID) int { return counts[it] })
		if got := s.PopularityRanked(); !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (%s): ranking diverged from the full rank\n got %v\nwant %v", step, what, got, want)
		}
	}
	check(0, "frozen")
	last := s.PopularityRanked()[nItems-1]
	rng := rand.New(rand.NewSource(5))
	for step := 1; step <= 2400; step++ {
		var it ItemID
		switch {
		case step <= 400:
			it = ItemID(rng.Intn(nItems)) // uniform: crossing and re-forming ties
		case step <= 800:
			it = 7 // one item, over and over
		case step <= 1400:
			it = last // the least popular item, all the way to the top
		default:
			it = ItemID(rng.Intn(nItems))
		}
		held := s.PopularityRanked()
		before := append([]ItemID(nil), held...)
		if err := s.Apply(Rating{User: UserID(rng.Intn(nUsers)), Item: it, Value: float64(1 + rng.Intn(5)), Time: int64(step)}); err != nil {
			t.Fatalf("step %d: Apply: %v", step, err)
		}
		counts[it]++
		check(step, "applied")
		if !reflect.DeepEqual(held, before) {
			t.Fatalf("step %d: Apply wrote into the ranking a reader held", step)
		}
		if step%97 == 0 {
			s.ReFreeze()
			check(step, "folded")
		}
	}
	if got := s.PopularityRanked()[0]; got != last {
		t.Errorf("item %d was rated 600 times in a row and ranks %v first", last, got)
	}
}
