package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
)

// deltaBaseRatings is a deterministic base rating sequence over 40
// users and 60 items.
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

// applySequence is a live-write sequence of n ratings over the frozen
// domains of base: every fifth re-rates a (user, item) pair already in
// base or earlier in the sequence, every seventh rates top (the most
// popular item), and the rest pair a random base user with a random
// base item.
func applySequence(base []Rating, top ItemID, n int, seed int64) []Rating {
	rng := rand.New(rand.NewSource(seed))
	seen := append([]Rating(nil), base...)
	var out []Rating
	for i := 0; i < n; i++ {
		r := Rating{
			User:  base[rng.Intn(len(base))].User,
			Item:  base[rng.Intn(len(base))].Item,
			Value: float64(1 + rng.Intn(5)),
			Time:  99000 + int64(i),
		}
		switch {
		case i%5 == 0:
			pair := seen[rng.Intn(len(seen))]
			r.User, r.Item = pair.User, pair.Item
		case i%7 == 0:
			r.Item = top
		}
		seen = append(seen, r)
		out = append(out, r)
	}
	return out
}

func freezeStore(t *testing.T, recs []Rating) *Store {
	t.Helper()
	s := NewStore()
	for _, r := range recs {
		mustAdd(t, s, r)
	}
	s.Freeze()
	return s
}

// compareStores asserts every read path answers identically on the two
// stores. Apply cannot grow either domain, so the sweep over every
// user and every item covers every list a rating can have touched.
func compareStores(t *testing.T, tag string, want, got *Store) {
	t.Helper()
	if !reflect.DeepEqual(want.Users(), got.Users()) {
		t.Fatalf("%s: Users diverge", tag)
	}
	if !reflect.DeepEqual(want.Items(), got.Items()) {
		t.Fatalf("%s: Items diverge", tag)
	}
	for _, u := range want.Users() {
		if wu, gu := want.Row(u), got.Row(u); !reflect.DeepEqual(wu, gu) {
			t.Fatalf("%s: Row(%d) = %+v, want %+v", tag, u, gu, wu)
		}
		if wu, gu := want.ByUser(u), got.ByUser(u); !reflect.DeepEqual(wu, gu) {
			t.Fatalf("%s: ByUser(%d) = %v, want %v", tag, u, gu, wu)
		}
		for _, it := range want.Items() {
			wv, wok := want.Value(u, it)
			gv, gok := got.Value(u, it)
			if wv != gv || wok != gok {
				t.Fatalf("%s: Value(%d,%d) = %v,%v want %v,%v", tag, u, it, gv, gok, wv, wok)
			}
		}
	}
	for _, it := range want.Items() {
		wi, gi := want.Raters(it), got.Raters(it)
		if !reflect.DeepEqual(wi, gi) {
			t.Fatalf("%s: Raters(%d) = %+v, want %+v", tag, it, gi, wi)
		}
		if want.ItemRatingVariance(it) != got.ItemRatingVariance(it) {
			t.Fatalf("%s: ItemRatingVariance(%d) diverges", tag, it)
		}
	}
	users := want.Users()
	for _, g := range [][]UserID{users[:1], users[len(users)/3 : 2*len(users)/3], users} {
		if !reflect.DeepEqual(want.UnratedPopular(g, 0), got.UnratedPopular(g, 0)) {
			t.Fatalf("%s: UnratedPopular diverges", tag)
		}
	}
	if want.NumRatings() != got.NumRatings() {
		t.Fatalf("%s: NumRatings = %d, want %d", tag, got.NumRatings(), want.NumRatings())
	}
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Fatalf("%s: Stats = %+v, want %+v", tag, got.Stats(), want.Stats())
	}
	if wm, gm := want.Stats().MeanRating, got.Stats().MeanRating; math.Float64bits(wm) != math.Float64bits(gm) {
		t.Fatalf("%s: Stats mean bits %x, want %x", tag, math.Float64bits(gm), math.Float64bits(wm))
	}
	if !reflect.DeepEqual(want.PopularityRanked(), got.PopularityRanked()) {
		t.Fatalf("%s: PopularityRanked diverges", tag)
	}
	if !reflect.DeepEqual(want.DiversitySet(10, 30), got.DiversitySet(10, 30)) {
		t.Fatalf("%s: DiversitySet diverges", tag)
	}
}

// coldAt is the cold rebuild of base followed by the first n of seq.
func coldAt(t *testing.T, base, seq []Rating, n int) *Store {
	t.Helper()
	cold, err := FromRatings(append(append([]Rating(nil), base...), seq[:n]...))
	if err != nil {
		t.Fatalf("FromRatings: %v", err)
	}
	return cold
}

// TestApplyMatchesColdRebuild is the dataset-level differential: after
// every one of 320 Applies — repeated (user, item) pairs, repeated
// ratings of the most popular item — a live store answers every query
// bit-identically to a cold store built from base plus that prefix, and
// on across a snapshot restore halfway through: the store is rebuilt
// from its own DumpRatings and the second half applies to the rebuild.
func TestApplyMatchesColdRebuild(t *testing.T) {
	base := deltaBaseRatings()
	top := coldAt(t, base, nil, 0).PopularityRanked()[0]
	seq := applySequence(base, top, 320, 11)
	live := freezeStore(t, base)
	half := len(seq) / 2
	for i, r := range seq {
		if err := live.Apply(r); err != nil {
			t.Fatalf("Apply(%+v): %v", r, err)
		}
		if i == half {
			if st := live.DeltaStats(); st.Applied != int64(half+1) || st.Pending != 0 {
				t.Fatalf("DeltaStats before the restore = %+v", st)
			}
			restored, err := FromRatings(live.DumpRatings())
			if err != nil {
				t.Fatalf("FromRatings(DumpRatings): %v", err)
			}
			live = restored
		}
		compareStores(t, fmt.Sprintf("after %d applies", i+1), coldAt(t, base, seq, i+1), live)
	}
	if st := live.DeltaStats(); st.Applied != int64(len(seq)-half-1) || st.Pending != 0 {
		t.Fatalf("DeltaStats after the restore = %+v", st)
	}
}

// TestRaterColumnsMatchUserRows holds the item-major layout to the
// user-major one: frozen from a base that already re-rates one pair, and
// after every one of 320 Applies — every fifth a repeated (user, item)
// pair — each item's column is, entry by entry and in order, the column
// a rebuild from the ByUser rows lays out: the same user position, value
// and time, users ascending and a user's repeated observations in log
// order, with the repeats flag set exactly where a user holds a run.
func TestRaterColumnsMatchUserRows(t *testing.T) {
	base := deltaBaseRatings()
	again := base[0]
	again.Value, again.Time = 6-again.Value, again.Time+1
	base = append(base, again)
	s := freezeStore(t, base)
	if it := again.Item; !s.Raters(it).Repeats() {
		t.Fatalf("the base re-rates item %d, yet its frozen column reports no repeats", it)
	}
	seq := applySequence(base, s.PopularityRanked()[0], 320, 13)
	check := func(tag string) {
		t.Helper()
		want := columnsFromRows(s)
		for i, it := range s.Items() {
			if got := s.Raters(it); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("%s: Raters(%d) = %+v, rebuilt from the rows %+v", tag, it, got, want[i])
			}
		}
	}
	check("frozen")
	for i, r := range seq {
		if err := s.Apply(r); err != nil {
			t.Fatalf("Apply(%+v): %v", r, err)
		}
		check(fmt.Sprintf("after %d applies", i+1))
	}
	runs := 0
	for _, it := range s.Items() {
		if s.Raters(it).Repeats() {
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("the sequence left no column with a repeated rater")
	}
}

// TestLayoutMatchesColdRebuild pins the layout the store's size rests
// on: frozen from a base that already re-rates one pair, and after every
// one of 320 Applies — every fifth a repeated (user, item) pair — every
// user row and every rater column equals the cold rebuild's, entry by
// entry with the repeats flag, and every array of every row and column
// holds exactly its entries: no append slack, from Freeze or from Apply.
func TestLayoutMatchesColdRebuild(t *testing.T) {
	base := deltaBaseRatings()
	again := base[0]
	again.Value, again.Time = 6-again.Value, again.Time+1
	base = append(base, again)
	live := freezeStore(t, base)
	seq := applySequence(base, live.PopularityRanked()[0], 320, 17)
	check := func(tag string, cold *Store) {
		t.Helper()
		for ui := range live.Users() {
			checkTight(t, fmt.Sprintf("%s: RowAt(%d)", tag, ui), live.RowAt(ui), cold.RowAt(ui))
		}
		for ii := range live.Items() {
			checkTight(t, fmt.Sprintf("%s: RatersAt(%d)", tag, ii), live.RatersAt(ii), cold.RatersAt(ii))
		}
	}
	check("frozen", freezeStore(t, base))
	for i, r := range seq {
		if err := live.Apply(r); err != nil {
			t.Fatalf("Apply(%+v): %v", r, err)
		}
		check(fmt.Sprintf("after %d applies", i+1), coldAt(t, base, seq, i+1))
	}
	runs := 0
	for ui := range live.Users() {
		if live.RowAt(ui).Repeats() {
			runs++
		}
	}
	if runs == 0 {
		t.Fatal("the sequence left no row with a repeated item")
	}
}

// checkTight asserts got equals want entry by entry, repeats flag
// included, and that each of got's and want's arrays has cap == len.
func checkTight(t *testing.T, tag string, got, want Column) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s = %+v, the cold rebuild's %+v", tag, got, want)
	}
	for _, c := range []Column{got, want} {
		if cap(c.Pos) != len(c.Pos) || cap(c.Value) != len(c.Value) || cap(c.Time) != len(c.Time) {
			t.Fatalf("%s: caps %d/%d/%d over %d entries", tag, cap(c.Pos), cap(c.Value), cap(c.Time), c.Len())
		}
	}
}

// columnsFromRows lays out every item's column, in Items() order, from
// the user rows alone: users in position order, each row in its order.
func columnsFromRows(s *Store) []Column {
	cols := make([]Column, len(s.Items()))
	for ui, u := range s.Users() {
		for _, r := range s.ByUser(u) {
			ii, _ := s.ItemIndex().Pos(r.Item)
			c := &cols[ii]
			if n := c.Len(); n > 0 && c.Pos[n-1] == int32(ui) {
				c.repeats = true
			}
			c.Pos = append(c.Pos, int32(ui))
			c.Value = append(c.Value, r.Value)
			c.Time = append(c.Time, r.Time)
		}
	}
	return cols
}

// FuzzApplyMatchesColdRebuild derives a base and a rating sequence from
// the input, over 8 users and 10 items; the first byte picks the base
// length. After every Apply the store must equal
// the cold rebuild of base plus the accepted prefix, and a rating
// outside the frozen domains must be refused and change nothing.
func FuzzApplyMatchesColdRebuild(f *testing.F) {
	f.Add([]byte{0x23, 1, 2, 3, 1, 2, 4, 3, 3, 3, 1, 2, 0, 7, 9, 4})
	f.Add([]byte{0x40, 0, 0, 4, 0, 0, 1, 0, 0, 2, 5, 9, 0, 0, 0, 3, 1, 1, 1})
	f.Add([]byte{0x11, 7, 9, 1, 6, 8, 2, 7, 9, 3, 7, 9, 4, 0, 9, 4, 7, 0, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		var log []Rating
		for i := 1; i+2 < len(data) && len(log) < 64; i += 3 {
			log = append(log, Rating{
				User:  UserID(data[i] % 8),
				Item:  ItemID(data[i+1] % 10),
				Value: float64(1 + data[i+2]%5),
				Time:  int64(len(log)),
			})
		}
		nBase := 1 + int(data[0]&0x0f)%len(log)
		base := log[:nBase]
		live := freezeStore(t, base)
		var applied []Rating
		for _, r := range log[nBase:] {
			err := live.Apply(r)
			_, knownUser := slices.BinarySearch(live.Users(), r.User)
			_, knownItem := slices.BinarySearch(live.Items(), r.Item)
			switch {
			case !knownUser && !errors.Is(err, ErrUnknownUser), knownUser && !knownItem && !errors.Is(err, ErrUnknownItem):
				t.Fatalf("Apply(%+v) outside the domains = %v", r, err)
			case knownUser && knownItem && err != nil:
				t.Fatalf("Apply(%+v): %v", r, err)
			case err == nil:
				applied = append(applied, r)
			}
			compareStores(t, fmt.Sprintf("after %+v", r), coldAt(t, base, applied, len(applied)), live)
		}
	})
}

// TestStoreReadsAllocateNothing pins that a read after Applies is an
// index lookup and an atomic load: no lock, no merge, no allocation.
// The exceptions are the results the caller owns: UnratedPopular's
// item list and its request-local bitset, and ByUser's cold-path
// rebuild of a row as ratings.
func TestStoreReadsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	base := deltaBaseRatings()
	s := freezeStore(t, base)
	for _, r := range applySequence(base, s.PopularityRanked()[0], 50, 5) {
		if err := s.Apply(r); err != nil {
			t.Fatal(err)
		}
	}
	u, it := base[3].User, base[3].Item
	group := s.Users()[:5]
	var sink int
	reads := []struct {
		name string
		want float64
		read func()
	}{
		{"Row", 0, func() { sink += s.Row(u).Len() }},
		{"RowAt", 0, func() { sink += s.RowAt(3).Len() }},
		{"Raters", 0, func() { sink += s.Raters(it).Len() }},
		{"RatersAt", 0, func() { sink += s.RatersAt(3).Len() }},
		{"Value", 0, func() { v, _ := s.Value(u, it); sink += int(v) }},
		{"PopularityRanked", 0, func() { sink += len(s.PopularityRanked()) }},
		{"NumRatings", 0, func() { sink += s.NumRatings() }},
		{"Stats", 0, func() { sink += s.Stats().Ratings }},
		{"UnratedPopular", 2, func() { sink += len(s.UnratedPopular(group, 10)) }},
		{"ByUser", 1, func() { sink += len(s.ByUser(u)) }},
	}
	for _, r := range reads {
		if got := testing.AllocsPerRun(100, r.read); got != r.want {
			t.Errorf("%s allocates %v times per call, want %v", r.name, got, r.want)
		}
	}
	_ = sink
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
		{Rating{User: 1, Item: 10, Value: math.NaN()}, ErrBadValue},
		{Rating{User: 1, Item: 10, Value: math.Inf(1)}, ErrBadValue},
	}
	for _, c := range cases {
		if err := s.Apply(c.r); !errors.Is(err, c.want) {
			t.Errorf("Apply(%+v): %v, want %v", c.r, err, c.want)
		}
	}
	if st := s.DeltaStats(); st.Applied != 0 {
		t.Fatalf("rejected ratings counted as applied: %+v", st)
	}
	if err := s.Apply(Rating{User: 1, Item: 10, Value: 4, Time: 7}); err != nil {
		t.Fatalf("valid Apply: %v", err)
	}
	if st := s.DeltaStats(); st.Applied != 1 {
		t.Fatalf("DeltaStats = %+v, want 1 applied", st)
	}
}

// TestApplyConcurrentWithReads runs two writers — one over even users
// and the lower half of the catalog, one over odd users and the upper
// half — against readers of every read path. Each list is written by
// one writer only, so the versions a reader may see are fixed: every
// rater list and row a reader sees must equal the cold rebuild's at
// some prefix of its writer's sequence, and successive reads of one
// list by one reader never go back to an earlier version. Under -race
// this pins the lock-free read discipline.
func TestApplyConcurrentWithReads(t *testing.T) {
	base := deltaBaseRatings()
	s := freezeStore(t, base)
	users, items := s.Users(), s.Items()

	const perWriter = 200
	seqs := make([][]Rating, 2)
	rng := rand.New(rand.NewSource(3))
	for w := range seqs {
		for i := 0; i < perWriter; i++ {
			seqs[w] = append(seqs[w], Rating{
				User:  users[2*rng.Intn(len(users)/2)+w],
				Item:  items[w*len(items)/2+rng.Intn(len(items)/2)],
				Value: float64(1 + rng.Intn(5)),
				Time:  int64(i),
			})
		}
	}
	// The versions each list passes through, from the cold rebuild
	// after every prefix of its writer's sequence; a list's version is
	// its length less its base length.
	rowVersions := map[UserID][]Column{}
	listVersions := map[ItemID][]Column{}
	for _, u := range users {
		rowVersions[u] = []Column{s.Row(u)}
	}
	for _, it := range items {
		listVersions[it] = []Column{s.Raters(it)}
	}
	for _, seq := range seqs {
		for i, r := range seq {
			cold := coldAt(t, base, seq, i+1)
			rowVersions[r.User] = append(rowVersions[r.User], cold.Row(r.User))
			listVersions[r.Item] = append(listVersions[r.Item], cold.Raters(r.Item))
		}
	}

	var wg sync.WaitGroup
	for _, seq := range seqs {
		wg.Add(1)
		go func(seq []Rating) {
			defer wg.Done()
			for _, r := range seq {
				if err := s.Apply(r); err != nil {
					t.Errorf("Apply: %v", err)
					return
				}
			}
		}(seq)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			lastRow := map[UserID]int{}
			lastList := map[ItemID]int{}
			lastN := 0
			for i := 0; i < 600; i++ {
				u := users[rng.Intn(len(users))]
				it := items[rng.Intn(len(items))]
				row, ok := seenVersion(s.Row(u), rowVersions[u], lastRow[u], Column.Len)
				if !ok {
					t.Errorf("Row(%d) is no version at or after %d", u, lastRow[u])
					return
				}
				list, ok := seenVersion(s.Raters(it), listVersions[it], lastList[it], Column.Len)
				if !ok {
					t.Errorf("Raters(%d) is no version at or after %d", it, lastList[it])
					return
				}
				n := s.NumRatings()
				if n < lastN {
					t.Errorf("NumRatings went back from %d to %d", lastN, n)
					return
				}
				lastRow[u], lastList[it], lastN = row, list, n
				s.Value(u, it)
				s.UnratedPopular(users[:3], 10)
				s.PopularityRanked()
				s.Stats()
			}
		}(int64(w))
	}
	wg.Wait()

	// Quiesced: every list is at its last version.
	if got, want := s.NumRatings(), len(base)+2*perWriter; got != want {
		t.Fatalf("NumRatings = %d, want %d", got, want)
	}
	for u, vs := range rowVersions {
		if !reflect.DeepEqual(s.Row(u), vs[len(vs)-1]) {
			t.Fatalf("Row(%d) is not its final version", u)
		}
	}
	for it, vs := range listVersions {
		if !reflect.DeepEqual(s.Raters(it), vs[len(vs)-1]) {
			t.Fatalf("Raters(%d) is not its final version", it)
		}
	}
}

// seenVersion finds got among versions — indexed by length over the
// first — and reports its index, or false when got is none of them or
// an earlier one than from.
func seenVersion[T any](got T, versions []T, from int, length func(T) int) (int, bool) {
	v := length(got) - length(versions[0])
	if v < from || v >= len(versions) || !reflect.DeepEqual(got, versions[v]) {
		return 0, false
	}
	return v, true
}

// TestApplyPromotesPopularityLikeFullRank holds the one-item move Apply
// makes in the popularity ranking to the full rankByPopularity sort:
// after every one of 2 400 seeded ratings — long runs of ties, one item
// rated over and over, the least popular item climbing from last place
// to first — the served ranking is the full rank of the counts a cold rebuild would see.
func TestApplyPromotesPopularityLikeFullRank(t *testing.T) {
	// 30 items; item i starts with i/3 + 1 ratings, so triples tie.
	const nItems, nUsers = 30, 10
	var recs []Rating
	for it := 0; it < nItems; it++ {
		for k := 0; k <= it/3; k++ {
			recs = append(recs, Rating{User: UserID(k % nUsers), Item: ItemID(it), Value: 3, Time: int64(len(recs))})
		}
	}
	s := freezeStore(t, recs)
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
	}
	if got := s.PopularityRanked()[0]; got != last {
		t.Errorf("item %d was rated 600 times in a row and ranks %v first", last, got)
	}
}
