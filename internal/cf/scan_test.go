package cf

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// referenceRanking is the scoring the walk in scan.go replaced, kept as
// its oracle: one pairwise similarity against every user in the store,
// every positive one in the canonical order, and the co-rating flags
// collected on the way.
func referenceRanking(p *Predictor, u dataset.UserID) ([]Neighbor, []dataset.UserID) {
	all := make([]Neighbor, 0, 64)
	var coraters []dataset.UserID
	for _, v := range p.store.Users() {
		if v == u {
			continue
		}
		s, corated := p.cosineCorated(u, v)
		if corated {
			coraters = append(coraters, v)
		}
		if s > 0 {
			all = append(all, Neighbor{User: v, Sim: s})
		}
	}
	slices.SortFunc(all, compareNeighbors)
	return all, coraters
}

// sameNeighbors reports the first entry at which two neighbor lists
// differ by user or similarity bits.
func sameNeighbors(got, want []Neighbor) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d neighbors, reference has %d\n got %v\nwant %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].User != want[i].User || math.Float64bits(got[i].Sim) != math.Float64bits(want[i].Sim) {
			return fmt.Errorf("neighbor %d = {%d %x}, reference {%d %x}", i,
				got[i].User, math.Float64bits(got[i].Sim), want[i].User, math.Float64bits(want[i].Sim))
		}
	}
	return nil
}

// usersOf lists a co-rater set in Users() order.
func usersOf(p *Predictor, co userBits) []dataset.UserID {
	var out []dataset.UserID
	for w, word := range co {
		for ; word != 0; word &= word - 1 {
			out = append(out, p.store.Users()[w<<6+bits.TrailingZeros64(word)])
		}
	}
	return out
}

// diffFill compares the walk against the pairwise reference for one
// user: the fill keeps the leading p.keep entries of the ranking with
// the same similarity bits, marked complete exactly when that is all of
// it; both walks find the same co-rater set; and the dot products the
// walk hands back finish, in the co-rater's argument order, to the float
// a fill of the co-rater computes for u — the similarity a rating by u
// repairs the co-rater's neighborhood with.
func diffFill(p *Predictor, u dataset.UserID) error {
	got := p.fill(u)
	ranking, wantCo := referenceRanking(p, u)
	if err := sameNeighbors(got.ns, ranking[:min(p.keep, len(ranking))]); err != nil {
		return fmt.Errorf("user %d: %w", u, err)
	}
	if want := len(ranking) <= p.keep; got.complete != want {
		return fmt.Errorf("user %d: complete = %v with %d positive peers and keep %d", u, got.complete, len(ranking), p.keep)
	}
	dot := make([]float64, len(p.store.Users()))
	if gotCo := usersOf(p, p.scanCoraters(u, dot)); !reflect.DeepEqual(gotCo, wantCo) {
		return fmt.Errorf("user %d: co-raters %v, reference %v", u, gotCo, wantCo)
	}
	for _, v := range wantCo {
		vi, _ := p.users.Pos(v)
		var got float64
		if dot[vi] != 0 {
			got = cosineFrom(dot[vi], p.norm(v), p.norm(u))
		}
		if want, _ := p.cosineCorated(v, u); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("sim(%d, %d) from %d's walk = %x, pairwise %x", v, u, u, math.Float64bits(got), math.Float64bits(want))
		}
	}
	return nil
}

// diffResident holds every cached neighborhood of p to a fresh predictor
// over p's store: the served top-k equals the fresh Neighbors by user
// and similarity bits, the stored list is an exact prefix of the
// pairwise ranking — all of it when marked complete — and an incomplete
// list still holds at least k entries.
func diffResident(p *Predictor) error {
	cold, err := NewPredictor(p.store, p.k)
	if err != nil {
		return err
	}
	for _, v := range p.store.Users() {
		nb, ok := residentEntry(p, v)
		if !ok {
			continue
		}
		if err := sameNeighbors(nb.top(p.k), cold.Neighbors(v)); err != nil {
			return fmt.Errorf("user %d serves a stale top-%d: %w", v, p.k, err)
		}
		ranking, _ := referenceRanking(cold, v)
		if len(nb.ns) > len(ranking) {
			return fmt.Errorf("user %d stores %d entries, the ranking has %d", v, len(nb.ns), len(ranking))
		}
		if err := sameNeighbors(nb.ns, ranking[:len(nb.ns)]); err != nil {
			return fmt.Errorf("user %d stores no prefix of the ranking: %w", v, err)
		}
		if nb.complete && len(nb.ns) != len(ranking) {
			return fmt.Errorf("user %d is marked complete with %d of %d positive peers", v, len(nb.ns), len(ranking))
		}
		if !nb.complete && len(nb.ns) < p.k {
			return fmt.Errorf("user %d keeps an incomplete list of %d < k = %d", v, len(nb.ns), p.k)
		}
	}
	return nil
}

// diffAllFills runs diffFill for every user of the store plus one the
// store has never seen, over a fresh predictor (so nothing is cached).
func diffAllFills(s *dataset.Store, k int) error {
	p, err := NewPredictor(s, k)
	if err != nil {
		return err
	}
	users := s.Users()
	stranger := dataset.UserID(math.MaxInt64)
	if len(users) > 0 && users[len(users)-1] == stranger {
		stranger = users[0] - 1
	}
	for _, u := range append(append([]dataset.UserID(nil), users...), stranger) {
		if err := diffFill(p, u); err != nil {
			return err
		}
		// The pooled dot vector must come back zeroed: a second fill of
		// the same user has to read the same.
		if err := diffFill(p, u); err != nil {
			return fmt.Errorf("second fill: %w", err)
		}
	}
	return nil
}

// scanWorld is one world of the scan-vs-pairwise table: base ratings
// frozen, then deltas applied live.
type scanWorld struct {
	name   string
	base   []dataset.Rating
	deltas []dataset.Rating
}

func rt(u, it int, v float64) dataset.Rating {
	return dataset.Rating{User: dataset.UserID(u), Item: dataset.ItemID(it), Value: v, Time: 1}
}

// randomRatings draws n ratings over the given user IDs, duplicates of
// one (user, item) pair allowed when dup is set.
func randomRatings(rng *rand.Rand, ids []dataset.UserID, items, n int, dup bool) []dataset.Rating {
	seen := make(map[[2]int]bool)
	var out []dataset.Rating
	for len(out) < n {
		ui, it := rng.Intn(len(ids)), rng.Intn(items)
		if !dup && seen[[2]int{ui, it}] {
			continue
		}
		seen[[2]int{ui, it}] = true
		out = append(out, dataset.Rating{User: ids[ui], Item: dataset.ItemID(it), Value: float64(1 + rng.Intn(5)), Time: int64(len(out))})
	}
	return out
}

func scanWorlds() []scanWorld {
	rng := rand.New(rand.NewSource(22))
	dense := make([]dataset.UserID, 40)
	for i := range dense {
		dense[i] = dataset.UserID(i)
	}
	negative := []dataset.UserID{-70, -69, -3, -1, 0, 2, 5, 64, 65, 127, 128, 300}
	sparse := []dataset.UserID{math.MinInt64, -1 << 40, -9, 0, 7, 1 << 20, 1 << 41, math.MaxInt64 - 1}
	return []scanWorld{
		{
			// u0 rated item 1 three times and u1 twice (and the other way
			// round on item 2): the merge-join pairs first with first up
			// to the shorter run, in the base, across base and delta, and
			// in the deltas alone.
			name: "duplicates on both sides",
			base: []dataset.Rating{
				rt(0, 1, 5), rt(1, 1, 2), rt(0, 1, 1), rt(1, 1, 4), rt(0, 1, 3),
				rt(0, 2, 2), rt(1, 2, 5), rt(1, 2, 1), rt(1, 2, 3),
				rt(2, 1, 4), rt(2, 3, 3), rt(3, 3, 5), rt(3, 4, 1), rt(4, 4, 2),
			},
			deltas: []dataset.Rating{
				rt(1, 1, 1), rt(0, 2, 4), rt(0, 2, 5), rt(2, 1, 2), rt(2, 1, 5),
				rt(4, 3, 3), rt(4, 3, 1), rt(3, 3, 2), rt(0, 4, 4),
			},
		},
		{
			name:   "dense random",
			base:   randomRatings(rng, dense, 25, 400, false),
			deltas: randomRatings(rng, dense, 25, 60, true),
		},
		{
			name:   "dense random with duplicates",
			base:   randomRatings(rng, dense[:12], 6, 200, true),
			deltas: randomRatings(rng, dense[:12], 6, 40, true),
		},
		{
			name:   "negative and gapped user IDs (offset table)",
			base:   randomRatings(rng, negative, 10, 70, true),
			deltas: randomRatings(rng, negative, 10, 20, true),
		},
		{
			name:   "sparse user IDs (map index)",
			base:   randomRatings(rng, sparse, 8, 40, true),
			deltas: randomRatings(rng, sparse, 8, 15, true),
		},
		{
			name: "one user",
			base: []dataset.Rating{rt(7, 1, 3), rt(7, 1, 4)},
		},
		{
			// Users 0, 1 and 2 rate items 1 to 3 in proportion and
			// user 3 copies them on two of the items: three neighbors
			// of user 3 tie exactly, so the canonical order alone picks
			// who makes a truncated top-k. The deltas make user 4 a
			// fourth copy and break one tie.
			name: "tied similarities",
			base: []dataset.Rating{
				rt(0, 1, 1), rt(0, 2, 2), rt(0, 3, 2),
				rt(1, 1, 2), rt(1, 2, 4), rt(1, 3, 4),
				rt(2, 1, 1), rt(2, 2, 2), rt(2, 3, 2),
				rt(3, 1, 1), rt(3, 2, 2),
				rt(4, 1, 1), rt(4, 2, 2), rt(5, 3, 5),
			},
			deltas: []dataset.Rating{rt(4, 3, 2), rt(5, 1, 1), rt(2, 1, 5)},
		},
		{
			// No two users share an item until the deltas land: every
			// neighborhood starts empty and the first overlaps fill it.
			name: "no co-rated items",
			base: []dataset.Rating{
				rt(0, 1, 4), rt(1, 2, 2), rt(2, 3, 5), rt(3, 4, 1), rt(4, 5, 3), rt(5, 6, 4),
			},
			deltas: []dataset.Rating{
				rt(0, 2, 4), rt(3, 1, 2), rt(4, 4, 5), rt(5, 1, 1), rt(2, 6, 3), rt(1, 3, 2),
			},
		},
		{
			// Everyone rates the one item: each pair co-rates a single
			// coordinate and every similarity is 1.
			name:   "one item",
			base:   []dataset.Rating{rt(0, 1, 5), rt(1, 1, 2), rt(2, 1, 4), rt(3, 1, 1), rt(4, 1, 3)},
			deltas: []dataset.Rating{rt(2, 1, 5), rt(0, 1, 3), rt(4, 1, 1)},
		},
	}
}

// neighborhoodSizes is the k column of the differential tables for a
// world of n users: one neighbor, a truncated neighborhood, room for
// exactly every other user, and more room than there are users.
func neighborhoodSizes(n int) []int {
	ks := []int{1, 3}
	if n-1 > 3 && n-1 < 50 {
		ks = append(ks, n-1)
	}
	return append(ks, 50)
}

// users counts the distinct users of w's frozen base.
func (w scanWorld) users() int {
	seen := make(map[dataset.UserID]bool)
	for _, r := range w.base {
		seen[r.User] = true
	}
	return len(seen)
}

// buildScanWorld freezes w.base and keeps only the deltas the frozen
// domains accept (a delta cannot introduce a user or an item).
func buildScanWorld(t testing.TB, w scanWorld) (*dataset.Store, []dataset.Rating) {
	t.Helper()
	s, err := dataset.FromRatings(w.base)
	if err != nil {
		t.Fatalf("FromRatings: %v", err)
	}
	users := make(map[dataset.UserID]bool)
	items := make(map[dataset.ItemID]bool)
	for _, r := range w.base {
		users[r.User], items[r.Item] = true, true
	}
	var deltas []dataset.Rating
	for _, r := range w.deltas {
		if users[r.User] && items[r.Item] {
			deltas = append(deltas, r)
		}
	}
	return s, deltas
}

// TestNeighborhoodScanMatchesPairwise holds the fill's walk to the
// pairwise reference bit for bit — neighbors, similarity bits and
// co-rater sets — for k from one neighbor to above the user count
// (truncated and full neighborhoods), and a store that is frozen and then takes
// ratings one at a time; a live predictor's repaired neighborhoods are
// held to the served top-k and the stored prefix.
func TestNeighborhoodScanMatchesPairwise(t *testing.T) {
	for _, w := range scanWorlds() {
		t.Run(w.name, func(t *testing.T) {
			for _, k := range neighborhoodSizes(w.users()) {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					s, deltas := buildScanWorld(t, w)
					if err := diffAllFills(s, k); err != nil {
						t.Fatalf("frozen: %v", err)
					}

					// A live predictor rides along: after every scoped
					// ingest each cached neighborhood it holds must serve
					// what a cold one computes and store a prefix of the
					// ranking.
					live, err := NewPredictor(s, k)
					if err != nil {
						t.Fatal(err)
					}
					for _, u := range s.Users() {
						live.Neighbors(u)
					}
					for i, r := range deltas {
						if err := s.Apply(r); err != nil {
							t.Fatalf("Apply(%+v): %v", r, err)
						}
						live.NoteIngestScoped(r.User, r.Item)
						if err := diffAllFills(s, k); err != nil {
							t.Fatalf("%d applied ratings: %v", i+1, err)
						}
						if err := diffResident(live); err != nil {
							t.Fatalf("%d scoped ingests: %v", i+1, err)
						}
					}
					for _, u := range s.Users() {
						ranking, _ := referenceRanking(live, u)
						if err := sameNeighbors(live.Neighbors(u), ranking[:min(k, len(ranking))]); err != nil {
							t.Fatalf("live Neighbors(%d) after %d scoped ingests: %v", u, len(deltas), err)
						}
					}
				})
			}
		})
	}
}

// TestCosineZeroNormGuard pins the guard the fill shares with the
// pairwise path: a zero norm on either side scores 0, never NaN or Inf.
func TestCosineZeroNormGuard(t *testing.T) {
	for _, c := range [][3]float64{{4, 0, 2}, {4, 2, 0}, {4, 0, 0}, {0, 2, 2}} {
		if got := cosineFrom(c[0], c[1], c[2]); got != 0 {
			t.Errorf("cosineFrom(%v, %v, %v) = %v, want 0", c[0], c[1], c[2], got)
		}
	}
	if got := cosineFrom(6, 2, 3); got != 1 {
		t.Errorf("cosineFrom(6, 2, 3) = %v, want 1", got)
	}
}

// TestFillWalksOnlyOwnRaterLists pins the kernel's cost: a cosine fill
// visits the rater lists of the user's distinct items, once each, and
// takes no pairwise merge-join at all.
func TestFillWalksOnlyOwnRaterLists(t *testing.T) {
	s := randomStore(t, 60, 40, 900, 5)
	// A repeat of one (user, item) must not walk that item's list twice.
	first := s.ByUser(0)[0]
	applyRating(t, s, 0, first.Item, 2)
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range s.Users() {
		want := 0
		seen := make(map[dataset.ItemID]bool)
		for _, r := range s.ByUser(u) {
			if !seen[r.Item] {
				seen[r.Item] = true
				want += s.Raters(r.Item).Len()
			}
		}
		entries, merges := p.work.listEntries.Load(), p.work.pairMerges.Load()
		p.Neighbors(u)
		if got := p.work.listEntries.Load() - entries; got != int64(want) {
			t.Errorf("fill of user %d walked %d rater-list entries, want %d", u, got, want)
		}
		if got := p.work.pairMerges.Load() - merges; got != 0 {
			t.Errorf("fill of user %d took %d pairwise merges, want 0", u, got)
		}
		entries = p.work.listEntries.Load()
		p.Neighbors(u)
		if got := p.work.listEntries.Load() - entries; got != 0 {
			t.Errorf("cached Neighbors(%d) walked %d rater-list entries", u, got)
		}
	}
}

// residentEntry returns v's cached neighborhood without filling it.
func residentEntry(p *Predictor, v dataset.UserID) (neighborhood, bool) {
	sh := p.stripe(v)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	nb, ok := sh.neighbors[v]
	return nb, ok
}

// TestFillRacingScopedIngestIsFencedOrFound races fills against a
// scoped ingest in a world where every user co-rates with every other
// and k exceeds the user count — so the rater sits in every top-k and
// any neighborhood computed before the rating is stale. Whatever is
// resident once both sides finish must therefore be post-ingest state:
// a fill that installed before the epoch bump was found by the repair's
// stripe pass and repaired, and one that installed after it was fenced
// unless it began after the bump — then it already held the fresh
// similarity, and a repair of it changes nothing it serves. Run with
// -race.
func TestFillRacingScopedIngestIsFencedOrFound(t *testing.T) {
	s := randomStore(t, 16, 8, 110, 31)
	p, err := NewPredictor(s, 64)
	if err != nil {
		t.Fatal(err)
	}
	users, items := s.Users(), s.Items()
	rng := rand.New(rand.NewSource(3))
	for round := 0; round < 120; round++ {
		for _, v := range users {
			p.dropNeighborhood(v)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 3; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := range users {
					p.Neighbors(users[(i*3+g)%len(users)])
				}
			}(g)
		}
		u, it := users[rng.Intn(len(users))], items[rng.Intn(len(items))]
		close(start)
		if err := s.Apply(dataset.Rating{User: u, Item: it, Value: float64(1 + rng.Intn(5)), Time: 1}); err != nil {
			t.Fatal(err)
		}
		p.NoteIngestScoped(u, it)
		wg.Wait()

		cold, err := NewPredictor(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range users {
			nb, ok := residentEntry(p, v)
			if !ok {
				continue
			}
			if got, want := nb.top(p.k), cold.Neighbors(v); !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: user %d's resident neighborhood predates user %d's rating:\n got %v\nwant %v", round, v, u, got, want)
			}
		}
	}
}

// FuzzNeighborhoodScanMatchesPairwise feeds the scan-vs-pairwise
// differential arbitrary small worlds: the second and third bytes pick
// the user-ID layout and how much of the log is frozen (the first picked
// among similarity measures the package no longer has and is ignored,
// so the seeds keep their meaning); every following triple is one
// rating.
func FuzzNeighborhoodScanMatchesPairwise(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 1, 3, 1, 1, 2, 0, 1, 4, 1, 1, 0})
	f.Add([]byte{1, 1, 1, 2, 0, 0, 0, 1, 0, 4, 0, 0, 2, 1, 0, 1, 2, 0, 3})
	f.Add([]byte{0, 1, 2, 9, 3, 2, 1, 4, 2, 2, 3, 2, 0, 4, 2, 4, 5, 1, 1, 3, 1, 2, 5, 1, 0})
	f.Add([]byte{1, 0, 2, 1, 7, 7, 7, 7, 7, 3, 6, 7, 1, 7, 7, 0})
	// Everyone rates item 0 alike: all similarities tie.
	f.Add([]byte{0, 0, 3, 0, 0, 4, 1, 0, 4, 2, 0, 4, 3, 0, 4, 4, 0, 4})
	// Disjoint items in the base, overlaps only in the deltas.
	f.Add([]byte{0, 0, 2, 0, 0, 1, 1, 1, 2, 2, 2, 3, 0, 1, 4, 1, 2, 0})
	// The extreme IDs of the map layout, MaxInt64 among them.
	f.Add([]byte{0, 2, 1, 0, 0, 4, 7, 0, 0, 0, 1, 1, 7, 1, 3})
	// One rating and nothing else.
	f.Add([]byte{0, 0, 0, 5, 5, 5})
	// One frozen rating, everything else live.
	f.Add([]byte{0, 1, 0, 0, 3, 0, 1, 3, 0, 2, 3, 0, 1, 4, 1, 2, 4, 2})
	// One (user, item) pair repeated in base and deltas.
	f.Add([]byte{0, 0, 1, 2, 2, 0, 2, 2, 4, 2, 2, 1, 3, 2, 2})
	layouts := [][]dataset.UserID{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{-70, -69, -3, 0, 5, 64, 65, 300},
		{math.MinInt64, -1 << 40, -9, 0, 7, 1 << 20, 1 << 41, math.MaxInt64},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ids := layouts[int(data[1])%len(layouts)]
		var log []dataset.Rating
		for body := data[3:]; len(body) >= 3 && len(log) < 96; body = body[3:] {
			log = append(log, dataset.Rating{
				User:  ids[int(body[0])%len(ids)],
				Item:  dataset.ItemID(body[1] % 6),
				Value: float64(1 + body[2]%5),
				Time:  int64(len(log)),
			})
		}
		if len(log) == 0 {
			return
		}
		nBase := 1 + int(data[2])%len(log)
		s, deltas := buildScanWorld(t, scanWorld{base: log[:nBase], deltas: log[nBase:]})
		if err := diffAllFills(s, 3); err != nil {
			t.Fatalf("frozen: %v", err)
		}
		for _, r := range deltas {
			if err := s.Apply(r); err != nil {
				t.Fatalf("Apply(%+v): %v", r, err)
			}
		}
		if err := diffAllFills(s, 3); err != nil {
			t.Fatalf("%d applied ratings: %v", len(deltas), err)
		}
	})
}
