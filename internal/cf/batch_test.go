package cf

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
)

// referenceBatchInto is the retired slot accumulation, kept as the
// differential reference for the kernel: one accumulation slot per
// distinct candidate found through a map built per call, the fallback
// means re-derived from the store instead of read off the dense
// snapshot.
func referenceBatchInto(p *Predictor, u dataset.UserID, items []dataset.ItemID, dst []float64) {
	slotOf := make([]int, len(items))
	index := make(map[dataset.ItemID]int, len(items))
	var slotItem []dataset.ItemID
	for i, it := range items {
		s, ok := index[it]
		if !ok {
			s = len(slotItem)
			index[it] = s
			slotItem = append(slotItem, it)
		}
		slotOf[i] = s
	}
	num := make([]float64, len(slotItem))
	den := make([]float64, len(slotItem))
	for _, nb := range p.Neighbors(u) {
		rs := p.store.ByUser(nb.User)
		for ri, r := range rs {
			if ri > 0 && rs[ri-1].Item == r.Item {
				continue
			}
			if s, ok := index[r.Item]; ok {
				num[s] += nb.Sim * r.Value
				den[s] += nb.Sim
			}
		}
	}
	own := make([]float64, len(slotItem))
	ownSet := make([]bool, len(slotItem))
	for _, r := range p.store.ByUser(u) {
		if s, ok := index[r.Item]; ok && !ownSet[s] {
			own[s] = r.Value
			ownSet[s] = true
		}
	}
	global := computePredictorMeans(p.store).globalMean
	for i := range items {
		s := slotOf[i]
		switch {
		case ownSet[s]:
			dst[i] = own[s]
		case den[s] > 0:
			dst[i] = clampRating(num[s] / den[s])
		default:
			if sum, n := sumRatings(p.store.Raters(slotItem[s]).Value); n > 0 {
				dst[i] = sum / float64(n)
			} else {
				dst[i] = global
			}
		}
	}
}

// PredictBatch is PredictBatchInto into a fresh slice, for tests.
func (p *Predictor) PredictBatch(u dataset.UserID, items []dataset.ItemID) []float64 {
	out := make([]float64, len(items))
	p.PredictBatchInto(u, items, out)
	return out
}

// diffBatch compares one batch call, position by position and bit by
// bit, against the reference and against per-item Predict, through both
// entry points: by item IDs and by the positions Positions maps them to.
func diffBatch(p *Predictor, u dataset.UserID, items []dataset.ItemID) error {
	got := make([]float64, len(items))
	for i := range got {
		got[i] = math.NaN() // the kernel must write every position
	}
	p.PredictBatchInto(u, items, got)
	byPos := make([]float64, len(items))
	for i := range byPos {
		byPos[i] = math.NaN()
	}
	p.PredictPositionsInto(u, p.Positions(items), byPos)
	want := make([]float64, len(items))
	referenceBatchInto(p, u, items, want)
	for i, it := range items {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("user %d item %d (position %d of %d): kernel %v, reference %v", u, it, i, len(items), got[i], want[i])
		}
		if math.Float64bits(byPos[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("user %d item %d (position %d of %d): kernel by positions %v, reference %v", u, it, i, len(items), byPos[i], want[i])
		}
		if seq := p.Predict(u, it); math.Float64bits(got[i]) != math.Float64bits(seq) {
			return fmt.Errorf("user %d item %d (position %d of %d): kernel %v, Predict %v", u, it, i, len(items), got[i], seq)
		}
	}
	return nil
}

// absentItem returns an ID outside the store's item domain.
func absentItem(s *dataset.Store) dataset.ItemID {
	for _, it := range []dataset.ItemID{-1, 12345, math.MaxInt64, math.MinInt64, 3} {
		if !slices.Contains(s.Items(), it) {
			return it
		}
	}
	panic("every probe ID is an item")
}

// batchItemLists is the candidate-list axis of the table: the popular
// pool a view asks for, lists with repeated candidates, with an item
// outside the store, empty, one item, and the whole catalog.
func batchItemLists(s *dataset.Store) map[string][]dataset.ItemID {
	pool := s.PopularSet(600)
	half := s.PopularSet((len(pool) + 1) / 2)
	ghost := absentItem(s)
	dup := append(slices.Clone(half), half...)
	dup = append(dup, pool[len(pool)-1], pool[0], pool[len(pool)-1])
	outside := append([]dataset.ItemID{ghost}, half...)
	outside = append(outside, ghost, pool[0])
	return map[string][]dataset.ItemID{
		"pool":         pool,
		"half pool":    half,
		"duplicates":   dup,
		"outside item": outside,
		"only outside": {ghost},
		"empty":        nil,
		"one item":     {pool[len(pool)/2]},
		"every item":   s.Items(),
	}
}

// diffAllBatches runs every candidate list for every user of the store
// and for one user outside it (no ratings, no neighbors).
func diffAllBatches(p *Predictor, s *dataset.Store) error {
	ghost := dataset.UserID(-12345)
	if slices.Contains(s.Users(), ghost) {
		ghost = 54321
	}
	for name, items := range batchItemLists(s) {
		for _, u := range append(slices.Clone(s.Users()), ghost) {
			if err := diffBatch(p, u, items); err != nil {
				return fmt.Errorf("list %q: %w", name, err)
			}
		}
	}
	return nil
}

// randomItemRatings draws n ratings over the given user and item IDs
// with spread-out times, repeats of one (user, item) pair allowed.
func randomItemRatings(rng *rand.Rand, users []dataset.UserID, items []dataset.ItemID, n int) []dataset.Rating {
	out := make([]dataset.Rating, n)
	for i := range out {
		out[i] = dataset.Rating{
			User:  users[rng.Intn(len(users))],
			Item:  items[rng.Intn(len(items))],
			Value: float64(1 + rng.Intn(5)),
			Time:  rng.Int63n(200),
		}
	}
	return out
}

func batchWorlds() []scanWorld {
	rng := rand.New(rand.NewSource(24))
	users := make([]dataset.UserID, 30)
	for i := range users {
		users[i] = dataset.UserID(i)
	}
	dense := make([]dataset.ItemID, 40)
	for i := range dense {
		dense[i] = dataset.ItemID(i)
	}
	gapped := []dataset.ItemID{-70, -69, -3, -1, 0, 2, 5, 64, 65, 127, 128, 300}
	sparse := []dataset.ItemID{math.MinInt64, -1 << 40, -9, 0, 7, 1 << 20, 1 << 41, math.MaxInt64 - 1}
	// User 99 shares no item with anyone, before or after the deltas: it
	// has ratings and no neighbors.
	loner := []dataset.Rating{rt(99, 900, 4), rt(99, 901, 2)}
	return []scanWorld{
		{
			// Repeats of one (user, item) pair in the user's own row and
			// in its neighbors' rows, in the base, across base and delta,
			// and in the deltas alone: the first one wins everywhere.
			name: "duplicate ratings in own and neighbor rows",
			base: []dataset.Rating{
				rt(0, 1, 5), rt(1, 1, 2), rt(0, 1, 1), rt(1, 1, 4), rt(0, 1, 3),
				rt(0, 2, 2), rt(1, 2, 5), rt(1, 2, 1), rt(1, 2, 3),
				rt(2, 1, 4), rt(2, 3, 3), rt(3, 3, 5), rt(3, 4, 1), rt(4, 4, 2), rt(4, 5, 3),
			},
			deltas: []dataset.Rating{
				rt(1, 1, 1), rt(0, 2, 4), rt(0, 2, 5), rt(2, 1, 2), rt(2, 1, 5),
				rt(4, 3, 3), rt(4, 3, 1), rt(3, 3, 2), rt(0, 4, 4), rt(2, 5, 1),
			},
		},
		{
			name:   "dense random and a user with no neighbors",
			base:   append(randomItemRatings(rng, users[:20], dense, 280), loner...),
			deltas: append(randomItemRatings(rng, users[:20], dense, 30), rt(99, 900, 1)),
		},
		{
			name:   "negative and gapped item IDs (offset table)",
			base:   randomItemRatings(rng, users[:12], gapped, 90),
			deltas: randomItemRatings(rng, users[:12], gapped, 25),
		},
		{
			name:   "sparse item IDs (map index)",
			base:   randomItemRatings(rng, users[:10], sparse, 50),
			deltas: randomItemRatings(rng, users[:10], sparse, 20),
		},
		{
			// Users 1, 2 and 3 tie exactly as user 0's neighbors and
			// rate item 4 differently: which of them a truncated
			// neighborhood keeps decides the prediction.
			name: "tied neighbors",
			base: []dataset.Rating{
				rt(0, 1, 1), rt(0, 2, 2),
				rt(1, 1, 1), rt(1, 2, 2), rt(1, 4, 5),
				rt(2, 1, 2), rt(2, 2, 4), rt(2, 4, 1),
				rt(3, 1, 1), rt(3, 2, 2), rt(3, 4, 3), rt(4, 3, 2),
			},
			deltas: []dataset.Rating{rt(4, 1, 1), rt(4, 2, 2), rt(0, 3, 4), rt(2, 4, 4)},
		},
		{
			// No two users share an item until the deltas land: every
			// prediction starts without a neighbor.
			name: "no co-rated items until the deltas",
			base: []dataset.Rating{
				rt(0, 1, 4), rt(1, 2, 2), rt(2, 3, 5), rt(3, 4, 1), rt(4, 5, 3),
			},
			deltas: []dataset.Rating{rt(0, 2, 4), rt(3, 1, 2), rt(4, 4, 5), rt(2, 5, 1), rt(1, 3, 3)},
		},
	}
}

// TestPredictBatchMatchesReference holds the kernel to the retired
// map-based accumulation and to per-item Predict, bit for bit, for k
// from one neighbor to above the user count (truncated and full
// neighborhoods),
// and a store that is frozen and then takes ratings one at a time.
func TestPredictBatchMatchesReference(t *testing.T) {
	for _, w := range batchWorlds() {
		t.Run(w.name, func(t *testing.T) {
			for _, k := range neighborhoodSizes(w.users()) {
				t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
					s, deltas := buildScanWorld(t, w)
					// Item IDs spread over the whole int range fit no
					// offset table: the store's item index is a map.
					items := s.Items()
					if spread := uint64(items[len(items)-1])-uint64(items[0]) > 1<<62; spread != (w.name == "sparse item IDs (map index)") {
						t.Fatalf("item IDs spread over the int range = %v", spread)
					}
					p := newTestPredictor(t, s, k)
					if err := diffAllBatches(p, s); err != nil {
						t.Fatalf("frozen: %v", err)
					}
					for i, r := range deltas {
						if err := s.Apply(r); err != nil {
							t.Fatalf("Apply(%+v): %v", r, err)
						}
						p.NoteIngestScoped(r.User, r.Item)
						// The full table after every few ratings and
						// after the last one.
						if i%6 != 0 && i != len(deltas)-1 {
							continue
						}
						if err := diffAllBatches(p, s); err != nil {
							t.Fatalf("%d applied ratings: %v", i+1, err)
						}
					}
				})
			}
		})
	}
}

// newTestPredictor builds a predictor over s with neighborhoods of k.
func newTestPredictor(t testing.TB, s *dataset.Store, k int) *Predictor {
	t.Helper()
	p, err := NewPredictor(s, k)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzPredictBatchMatchesReference feeds the kernel-vs-reference
// differential arbitrary small worlds: the second and third bytes pick
// the item-ID layout and how much of the log is frozen (the first picked
// among predictors the package no longer has and is ignored, so the
// seeds keep their meaning); every following triple is one rating.
func FuzzPredictBatchMatchesReference(f *testing.F) {
	f.Add([]byte{0, 0, 0, 4, 0, 1, 3, 1, 1, 2, 0, 1, 4, 1, 1, 0})
	f.Add([]byte{1, 1, 1, 2, 0, 0, 0, 1, 0, 4, 0, 0, 2, 1, 0, 1, 2, 0, 3})
	f.Add([]byte{2, 1, 2, 9, 3, 2, 1, 4, 2, 2, 3, 2, 0, 4, 2, 4, 5, 1, 1, 3, 1, 2, 5, 1, 0})
	f.Add([]byte{2, 0, 2, 1, 7, 7, 7, 7, 7, 3, 6, 7, 1, 7, 7, 0})
	// Every user rates item 0 alike: all neighbors tie.
	f.Add([]byte{0, 0, 3, 0, 0, 4, 1, 0, 4, 2, 0, 4, 3, 0, 4, 4, 0, 4})
	// Disjoint items in the base, overlaps only in the deltas.
	f.Add([]byte{0, 0, 2, 0, 0, 1, 1, 1, 2, 2, 2, 3, 0, 1, 4, 1, 2, 0})
	// The extreme IDs of the map layout, MaxInt64 - 1 among them.
	f.Add([]byte{0, 2, 1, 0, 0, 4, 1, 7, 0, 0, 7, 1, 1, 0, 3})
	// One rating and nothing else.
	f.Add([]byte{0, 0, 0, 5, 5, 5})
	// One frozen rating, everything else live.
	f.Add([]byte{0, 1, 0, 0, 3, 0, 1, 3, 0, 2, 3, 0, 1, 4, 1, 2, 4, 2})
	// One (user, item) pair repeated in base and deltas.
	f.Add([]byte{0, 0, 1, 2, 2, 0, 2, 2, 4, 2, 2, 1, 3, 2, 2})
	layouts := [][]dataset.ItemID{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{-70, -69, -3, 0, 5, 64, 65, 300},
		{math.MinInt64, -1 << 40, -9, 0, 7, 1 << 20, 1 << 41, math.MaxInt64 - 1},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		ids := layouts[int(data[1])%len(layouts)]
		var log []dataset.Rating
		for body := data[3:]; len(body) >= 3 && len(log) < 96; body = body[3:] {
			log = append(log, dataset.Rating{
				User:  dataset.UserID(body[0] % 6),
				Item:  ids[int(body[1])%len(ids)],
				Value: float64(1 + body[2]%5),
				Time:  int64(body[2]),
			})
		}
		if len(log) == 0 {
			return
		}
		nBase := 1 + int(data[2])%len(log)
		s, deltas := buildScanWorld(t, scanWorld{base: log[:nBase], deltas: log[nBase:]})
		p := newTestPredictor(t, s, 3)
		if err := diffAllBatches(p, s); err != nil {
			t.Fatalf("frozen: %v", err)
		}
		for _, r := range deltas {
			if err := s.Apply(r); err != nil {
				t.Fatalf("Apply(%+v): %v", r, err)
			}
			p.NoteIngestScoped(r.User, r.Item)
		}
		if err := diffAllBatches(p, s); err != nil {
			t.Fatalf("%d applied ratings: %v", len(deltas), err)
		}
	})
}

// TestPredictBatchIntoAllocatesNothing pins the pooled working set: with
// the user's neighborhood cached, a batch call allocates nothing.
func TestPredictBatchIntoAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under the race detector")
	}
	s := randomStore(t, 60, 80, 1500, 8)
	items := s.PopularSet(50)
	dst := make([]float64, len(items))
	p := newTestPredictor(t, s, 10)
	p.PredictBatchInto(3, items, dst) // fills the neighborhood and the pool
	if allocs := testing.AllocsPerRun(200, func() { p.PredictBatchInto(3, items, dst) }); allocs != 0 {
		t.Errorf("PredictBatchInto allocates %v times per call, want 0", allocs)
	}
	pos := p.Positions(items)
	if allocs := testing.AllocsPerRun(200, func() { p.PredictPositionsInto(3, pos, dst) }); allocs != 0 {
		t.Errorf("PredictPositionsInto allocates %v times per call, want 0", allocs)
	}
}

// TestBatchScratchReturnsClean holds the kernel to the pool's invariant:
// after calls of different lengths, with repeated candidates and items
// outside the store, every entry of the working set is zero again — a
// mark or a partial sum left behind would leak one user's evidence into
// the next view.
func TestBatchScratchReturnsClean(t *testing.T) {
	s := randomStore(t, 40, 60, 900, 9)
	lists := batchItemLists(s)
	p := newTestPredictor(t, s, 8)
	sc := p.scratch.Get().(*batchScratch)
	// Longest first would hide a tail left dirty by a shorter call; run
	// the lists in both orders.
	names := []string{"one item", "duplicates", "every item", "outside item", "empty", "pool", "half pool", "one item"}
	for round := 0; round < 2; round++ {
		for _, name := range names {
			items := lists[name]
			for k, u := range s.Users()[:10] {
				got := make([]float64, len(items))
				if k%2 == 0 {
					p.batchWith(sc, u, items, got)
				} else {
					p.batchAt(sc, u, p.Positions(items), got)
				}
				want := make([]float64, len(items))
				referenceBatchInto(p, u, items, want)
				if !slices.Equal(got, want) {
					t.Fatalf("list %q, user %d: kernel on a reused working set diverges from the reference", name, u)
				}
				if k%2 == 1 && slices.ContainsFunc(sc.pos, func(ix int32) bool { return ix != 0 }) {
					t.Fatalf("list %q, user %d: the kernel by positions wrote the scratch positions", name, u)
				}
				for i, v := range sc.slot {
					if v != 0 {
						t.Fatalf("list %q, user %d: slot[%d] = %d at rest", name, u, i, v)
					}
				}
				for i := range sc.num {
					if sc.num[i] != 0 || sc.den[i] != 0 || sc.own[i] != 0 || sc.ownSet[i] {
						t.Fatalf("list %q, user %d: entry %d at rest = num %v den %v own %v ownSet %v",
							name, u, i, sc.num[i], sc.den[i], sc.own[i], sc.ownSet[i])
					}
				}
			}
		}
		slices.Reverse(names)
	}
	if len(sc.num) < len(lists["duplicates"]) {
		t.Fatalf("working set grew to %d entries, the longest batch has %d", len(sc.num), len(lists["duplicates"]))
	}
}

// TestConcurrentBatchesDuringScopedIngest runs batch calls of mixed
// lengths from 8 goroutines while ratings are applied and noted, and
// holds every result taken between two ingests to a serial rerun on a
// cold predictor over the same prefix of the rating log. Run with -race.
func TestConcurrentBatchesDuringScopedIngest(t *testing.T) {
	const readers = 8
	rng := rand.New(rand.NewSource(41))
	base := randomStore(t, 30, 40, 500, 40).DumpRatings()
	s, err := dataset.FromRatings(base)
	if err != nil {
		t.Fatal(err)
	}
	users, catalog := s.Users(), s.Items()
	stream := randomItemRatings(rng, users, catalog, 40)
	lists := [][]dataset.ItemID{
		s.PopularSet(600),
		s.PopularSet(7),
		append(s.PopularSet(12), s.PopularSet(12)...),
		{catalog[3]},
		append([]dataset.ItemID{absentItem(s)}, catalog[:20]...),
	}
	p, err := NewPredictor(s, 10)
	if err != nil {
		t.Fatal(err)
	}

	// seq is odd while a rating is being applied and noted; a result
	// read under one even value on both sides saw exactly seq/2 ratings.
	type sample struct {
		applied int
		user    dataset.UserID
		list    int
		out     []float64
	}
	var seq, reads atomic.Int64
	var stop atomic.Bool
	samples := make([][]sample, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for !stop.Load() {
				u, li := users[rng.Intn(len(users))], rng.Intn(len(lists))
				out := make([]float64, len(lists[li]))
				before := seq.Load()
				p.PredictBatchInto(u, lists[li], out)
				if before%2 == 0 && seq.Load() == before {
					samples[g] = append(samples[g], sample{int(before / 2), u, li, out})
				}
				reads.Add(1)
			}
		}(g)
	}
	for _, r := range stream {
		// Let the readers get some calls in between two ratings.
		for mark := reads.Load(); reads.Load() < mark+2*readers; {
			runtime.Gosched()
		}
		seq.Add(1)
		if err := s.Apply(r); err != nil {
			t.Error(err)
			break
		}
		p.NoteIngestScoped(r.User, r.Item)
		seq.Add(1)
	}
	stop.Store(true)
	wg.Wait()

	cold := make(map[int]*Predictor)
	checked := 0
	for _, ss := range samples {
		for _, sm := range ss {
			c := cold[sm.applied]
			if c == nil {
				cs, err := dataset.FromRatings(append(slices.Clone(base), stream[:sm.applied]...))
				if err != nil {
					t.Fatal(err)
				}
				if c, err = NewPredictor(cs, 10); err != nil {
					t.Fatal(err)
				}
				cold[sm.applied] = c
			}
			want := make([]float64, len(sm.out))
			c.PredictBatchInto(sm.user, lists[sm.list], want)
			for i := range want {
				if math.Float64bits(sm.out[i]) != math.Float64bits(want[i]) {
					t.Fatalf("after %d ratings, user %d, list %d, position %d: concurrent %v, serial cold rerun %v",
						sm.applied, sm.user, sm.list, i, sm.out[i], want[i])
				}
			}
			checked++
		}
	}
	if checked < len(stream) {
		t.Fatalf("only %d results fell between two ingests", checked)
	}
}

// TestIncrementalMeansMatchFullRecompute applies 2 400 ratings one at a
// time — many repeats of a few items, one item 400 times running — and
// holds the scoped ingest's means to the full
// recomputation bit for bit after each.
func TestIncrementalMeansMatchFullRecompute(t *testing.T) {
	s := randomStore(t, 50, 60, 1200, 17)
	p, err := NewPredictor(s, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	users, items := s.Users(), s.Items()
	check := func(n int) {
		t.Helper()
		got, want := p.means.Load(), computePredictorMeans(s)
		if math.Float64bits(got.globalMean) != math.Float64bits(want.globalMean) {
			t.Fatalf("after %d ratings: global mean %v, full recompute %v", n, got.globalMean, want.globalMean)
		}
		if !slices.Equal(got.counts, want.counts) {
			t.Fatalf("after %d ratings: per-item counts diverge from the full recompute", n)
		}
		for i, it := range items {
			g, w := got.fallback(i, true), want.fallback(i, true)
			if math.Float64bits(got.sums[i]) != math.Float64bits(want.sums[i]) || math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("after %d ratings: item %d sum %v mean %v, full recompute %v and %v", n, it, got.sums[i], g, want.sums[i], w)
			}
		}
	}
	check(0)
	for n := 1; n <= 2400; n++ {
		it := items[rng.Intn(len(items))]
		switch {
		case n > 700 && n <= 1100:
			it = items[7] // one item 400 times running
		case n%3 == 0:
			it = items[rng.Intn(4)] // repeats of a few items
		}
		r := dataset.Rating{User: users[rng.Intn(len(users))], Item: it, Value: float64(1 + rng.Intn(5)), Time: int64(n)}
		if err := s.Apply(r); err != nil {
			t.Fatal(err)
		}
		p.NoteIngestScoped(r.User, r.Item)
		check(n)
	}
}
