package liststore

import (
	"math"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
)

// batchSource is what the test builders read views from: a batch
// prediction of one user over the pool, on the 1..5 rating scale.
type batchSource interface {
	PredictBatch(u dataset.UserID, items []dataset.ItemID) []float64
}

// stubSource is a deterministic batchSource whose batch-call count
// proves when the store recomputes.
type stubSource struct {
	batchCalls atomic.Int64
}

func (s *stubSource) Predict(u dataset.UserID, it dataset.ItemID) float64 {
	return 1 + float64((int(u)*7+int(it)*13)%401)/100
}

func (s *stubSource) PredictBatch(u dataset.UserID, items []dataset.ItemID) []float64 {
	s.batchCalls.Add(1)
	out := make([]float64, len(items))
	for i, it := range items {
		out[i] = s.Predict(u, it)
	}
	return out
}

// sourceBuilder builds views from src the way the engine's in-process
// builder does — one batch prediction over pool, divided by 5 onto
// [0,1], one canonical sort — sequentially.
func sourceBuilder(src batchSource, pool []dataset.ItemID) Builder {
	return func(users []dataset.UserID) ([]*View, error) {
		out := make([]*View, len(users))
		for i, u := range users {
			scores := src.PredictBatch(u, pool)
			for p := range scores {
				scores[p] /= 5
			}
			out[i] = NewView(scores)
		}
		return out, nil
	}
}

// newLocal is a store over pool whose views are built from src.
func newLocal(src batchSource, pool []dataset.ItemID, capacity int) *Store {
	return NewOver(sourceBuilder(src, pool), pool, capacity)
}

// acquire returns u's view through a one-user AcquireMulti.
func acquire(s *Store, u dataset.UserID) (*View, error) {
	vs, err := s.AcquireMulti([]dataset.UserID{u})
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

// mustAcquire is acquire over a builder that cannot fail.
func mustAcquire(s *Store, u dataset.UserID) *View {
	v, err := acquire(s, u)
	if err != nil {
		panic(err)
	}
	return v
}

func testPool(n int) []dataset.ItemID {
	pool := make([]dataset.ItemID, n)
	for i := range pool {
		pool[i] = dataset.ItemID(10 * (i + 1)) // 10, 20, 30, ... (gaps on purpose)
	}
	return pool
}

// referenceSortCanonical is the comparison sort views used to be built
// with; the canonical order is a strict total order, so any other
// correct sort must produce the same entries.
func referenceSortCanonical(entries []core.Entry) {
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].Value != entries[j].Value {
			return entries[i].Value > entries[j].Value
		}
		return entries[i].Key < entries[j].Key
	})
}

// ratingLevelSource predicts a whole rating level for two items in five
// and a spread score otherwise — the tie structure of a real view.
type ratingLevelSource struct{ stubSource }

func (s *ratingLevelSource) Predict(u dataset.UserID, it dataset.ItemID) float64 {
	if (int(u)+int(it)/10)%5 < 2 {
		return float64(1 + (int(u)*3+int(it)/10)%5)
	}
	return s.stubSource.Predict(u, it)
}

func (s *ratingLevelSource) PredictBatch(u dataset.UserID, items []dataset.ItemID) []float64 {
	out := make([]float64, len(items))
	for i, it := range items {
		out[i] = s.Predict(u, it)
	}
	return out
}

// TestViewsMatchTheReferenceSort: a view built in place from predictions
// and one rebuilt from the same scores alone (the router-fetch path)
// both carry exactly the reference sort's entries.
func TestViewsMatchTheReferenceSort(t *testing.T) {
	pool := testPool(1500)
	views, err := sourceBuilder(&ratingLevelSource{}, pool)([]dataset.UserID{3, 11, 42})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range views {
		want := make([]core.Entry, len(v.Scores))
		distinct := map[float64]bool{}
		for p, score := range v.Scores {
			want[p] = core.Entry{Key: p, Value: score}
			distinct[score] = true
		}
		if len(distinct) > len(pool)/2 {
			t.Fatalf("view %d has %d distinct scores in %d: not tie-heavy", i, len(distinct), len(pool))
		}
		referenceSortCanonical(want)
		if !slices.Equal(v.Order, positionsOf(want)) {
			t.Errorf("view %d: built view diverges from the reference sort", i)
		}
		rebuilt := NewView(slices.Clone(v.Scores))
		if !slices.Equal(rebuilt.Order, positionsOf(want)) {
			t.Errorf("view %d: view rebuilt from scores diverges from the reference sort", i)
		}
	}
}

// positionsOf lists the keys of entries as a view's Order.
func positionsOf(entries []core.Entry) []int32 {
	out := make([]int32, len(entries))
	for i, e := range entries {
		out[i] = int32(e.Key)
	}
	return out
}

// TestViewHoldsScoresAndOrderOnly pins a view's memory: per pool
// position one float64 score and one int32 sorted position, nothing
// else — the layout the router's retained views are sized by. NewView
// over the same scores gives the same Order every time, and that order
// is the reference sort of (score, position), ties and signed zeros
// included.
func TestViewHoldsScoresAndOrderOnly(t *testing.T) {
	typ := reflect.TypeOf(View{})
	if typ.NumField() != 2 ||
		typ.Field(0).Name != "Scores" || typ.Field(0).Type != reflect.TypeOf([]float64(nil)) ||
		typ.Field(1).Name != "Order" || typ.Field(1).Type != reflect.TypeOf([]int32(nil)) {
		t.Fatalf("View is %v, want {Scores []float64; Order []int32}", typ)
	}
	negZero := math.Copysign(0, -1)
	for _, n := range []int{1, 10, 1500} {
		scores := make([]float64, n)
		for p := range scores {
			switch p % 5 {
			case 0:
				scores[p] = negZero
			case 1:
				scores[p] = 0
			case 2:
				scores[p] = 0.8 // a whole rating level: heavy ties
			default:
				scores[p] = float64((p*37)%101) / 101
			}
		}
		v := NewView(scores)
		if cap(v.Scores) != n || cap(v.Order) != n {
			t.Errorf("n=%d: cap(Scores)=%d cap(Order)=%d, want %d each", n, cap(v.Scores), cap(v.Order), n)
		}
		if &v.Scores[0] != &scores[0] {
			t.Errorf("n=%d: the view copied its scores", n)
		}
		want := make([]core.Entry, n)
		for p, s := range scores {
			want[p] = core.Entry{Key: p, Value: s}
		}
		referenceSortCanonical(want)
		if !slices.Equal(v.Order, positionsOf(want)) {
			t.Errorf("n=%d: Order diverges from the reference sort", n)
		}
		if again := NewView(scores); !slices.Equal(again.Order, v.Order) {
			t.Errorf("n=%d: NewView over the same scores gave another Order", n)
		}

		// What NewView allocates is the view and its Order: the sort's
		// 16-byte entries are pooled scratch. (The race detector drops
		// pooled items at random, so only the count is exact there.)
		if allocs := testing.AllocsPerRun(20, func() { NewView(scores) }); allocs > 2 && !raceEnabled {
			t.Errorf("n=%d: NewView made %.0f allocations, want 2 (view, order)", n, allocs)
		}
		if raceEnabled {
			continue
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			NewView(scores)
		}
		runtime.ReadMemStats(&after)
		if perView := (after.TotalAlloc - before.TotalAlloc) / runs; perView > uint64(5*n+128) {
			t.Errorf("n=%d: NewView allocates %d B per view, want ≈ 4 B per position", n, perView)
		}
	}
}

// TestStoreOverEmptyPoolCoversNothing: a store over an empty pool exists
// and maps no candidate, so every slice assembles densely.
func TestStoreOverEmptyPoolCoversNothing(t *testing.T) {
	s := newLocal(&stubSource{}, nil, 4)
	if localOf, covered := s.MapCandidates([]dataset.ItemID{10, 20}); covered || len(localOf) != 0 {
		t.Errorf("mapping over an empty pool = %v (covered %v), want nothing covered", localOf, covered)
	}
}

// TestAcquireBuildsCanonicalView pins the view contents: normalized
// dense scores in pool order and the canonical sort of those scores.
func TestAcquireBuildsCanonicalView(t *testing.T) {
	src := &stubSource{}
	pool := testPool(8)
	s := newLocal(src, pool, 4)

	v := mustAcquire(s, 3)
	if len(v.Scores) != len(pool) || len(v.Order) != len(pool) {
		t.Fatalf("view sizes %d/%d, want %d", len(v.Scores), len(v.Order), len(pool))
	}
	for p, it := range pool {
		want := src.Predict(3, it) / 5
		if v.Scores[p] != want {
			t.Errorf("Scores[%d] = %g, want %g", p, v.Scores[p], want)
		}
	}
	seen := make([]bool, len(pool))
	for i, p := range v.Order {
		if seen[p] {
			t.Fatalf("position %d sorted twice", p)
		}
		seen[p] = true
		if i == 0 {
			continue
		}
		q := v.Order[i-1]
		if v.Scores[p] > v.Scores[q] || (v.Scores[p] == v.Scores[q] && p < q) {
			t.Fatalf("positions %d,%d out of canonical order: %g %g", q, p, v.Scores[q], v.Scores[p])
		}
	}
}

func TestAcquireHitsAndCounters(t *testing.T) {
	src := &stubSource{}
	s := newLocal(src, testPool(5), 4)

	first := mustAcquire(s, 1)
	second := mustAcquire(s, 1)
	if first != second {
		t.Error("second acquire returned a different view")
	}
	if got := src.batchCalls.Load(); got != 1 {
		t.Errorf("source batch calls = %d, want 1 (one build)", got)
	}
	st := s.Stats()
	if st.ViewHits != 1 || st.ViewBuilds != 1 || st.Size != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 build / size 1", st)
	}
	if st.PoolSize != 5 {
		t.Errorf("pool size = %d, want 5", st.PoolSize)
	}
}

// TestClockEviction pins the second-chance policy: views enter
// referenced (a fresh build is never the next victim), a view hit
// since the last sweep survives, and the untouched one is evicted.
func TestClockEviction(t *testing.T) {
	src := &stubSource{}
	s := newLocal(src, testPool(5), 3)

	mustAcquire(s, 1)
	mustAcquire(s, 2)
	mustAcquire(s, 3)
	// First insert at capacity: the sweep strips every insert-time
	// reference bit on its lap and evicts the oldest (user 1).
	mustAcquire(s, 4)
	if st := s.Stats(); st.Evictions != 1 || st.Size != 3 {
		t.Fatalf("stats = %+v, want 1 eviction at size 3", st)
	}

	mustAcquire(s, 2) // re-referenced: must survive the next sweep
	mustAcquire(s, 5) // sweep: 2 gets its second chance, untouched 3 is evicted

	before := s.Stats().ViewBuilds
	mustAcquire(s, 2) // still resident → hit, no build
	if got := s.Stats().ViewBuilds; got != before {
		t.Errorf("recently hit user 2 was evicted despite its second chance (builds %d -> %d)", before, got)
	}
	mustAcquire(s, 3) // was evicted: rebuild
	if got := s.Stats().ViewBuilds; got != before+1 {
		t.Errorf("untouched user 3 should have been the victim (builds %d -> %d)", before, got)
	}
}

// TestMapCandidates pins the mapping shape: candidate slices that
// filter the pool in order map monotonically and are covered; a slice
// with an item beyond the pool or out of pool order is not covered,
// however much of it maps.
func TestMapCandidates(t *testing.T) {
	src := &stubSource{}
	pool := testPool(5) // 10 20 30 40 50
	s := newLocal(src, pool, 4)

	items := []dataset.ItemID{10, 30, 50}
	localOf, covered := s.MapCandidates(items)
	if want := []int32{0, -1, 1, -1, 2}; !covered || !reflect.DeepEqual(localOf, want) {
		t.Errorf("mapping = %v (covered %v), want %v covered", localOf, covered, want)
	}

	// Two calls on one slice return equal mappings that share no state.
	again, _ := s.MapCandidates(items)
	if !reflect.DeepEqual(again, localOf) {
		t.Errorf("second MapCandidates = %v, want %v", again, localOf)
	}
	again[0] = 7
	if localOf[0] != 0 {
		t.Error("two MapCandidates calls share a LocalOf slice")
	}

	for _, slice := range [][]dataset.ItemID{
		{10, 30, 60},     // 60 is outside the pool
		{10, 20, 40, 30}, // 30 is out of pool order
		{10, 20, 20},     // 20 is duplicated
	} {
		if localOf, covered := s.MapCandidates(slice); covered || localOf != nil {
			t.Errorf("%v: mapping %v (covered %v), want none", slice, localOf, covered)
		}
	}

	// Only a covered slice pays for its pool-length mapping; an uncovered
	// one, which assembles densely, allocates nothing.
	uncovered := []dataset.ItemID{10, 20, 40, 30}
	if n := testing.AllocsPerRun(100, func() { s.MapCandidates(uncovered) }); n != 0 {
		t.Errorf("uncovered slice: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.MapCandidates(items) }); n != 1 {
		t.Errorf("covered slice: %v allocations, want 1", n)
	}
}

// TestAcquireConcurrent hammers the store from many goroutines (run
// with -race); every view of one user must be identical and the
// build count conserved against hits.
func TestAcquireConcurrent(t *testing.T) {
	src := &stubSource{}
	s := newLocal(src, testPool(30), 8)

	const workers = 8
	const rounds = 100
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				u := dataset.UserID((w + r) % 12)
				v := mustAcquire(s, u)
				if len(v.Scores) != 30 {
					panic("short view")
				}
				if r%10 == 0 {
					s.InvalidateAll()
				}
				s.MapCandidates([]dataset.ItemID{10, 20, 30})
				_ = s.Stats()
			}
		}(w)
	}
	wg.Wait()

	st := s.Stats()
	if st.ViewHits+st.ViewBuilds != workers*rounds {
		t.Errorf("hits %d + builds %d != %d acquires", st.ViewHits, st.ViewBuilds, workers*rounds)
	}
	if st.Size > 8 {
		t.Errorf("size %d exceeds bound 8", st.Size)
	}
}

// TestInvalidateAll pins the ingest hook: every view drops, the next
// acquire rebuilds (counted as a rebuild), and counters account for
// the drops as invalidations.
func TestInvalidateAll(t *testing.T) {
	src := &stubSource{}
	s := newLocal(src, testPool(5), 16)
	before := make(map[dataset.UserID]*View)
	for u := dataset.UserID(1); u <= 4; u++ {
		before[u] = mustAcquire(s, u)
	}

	if got := s.InvalidateAll(); got != 4 {
		t.Fatalf("InvalidateAll dropped %d views, want 4", got)
	}
	if st := s.Stats(); st.Size != 0 || st.Invalidations != 4 {
		t.Fatalf("post-invalidate stats = %+v, want size 0 / 4 invalidations", st)
	}
	for u := dataset.UserID(1); u <= 4; u++ {
		if mustAcquire(s, u) == before[u] {
			t.Errorf("user %d still served the pre-invalidation view", u)
		}
	}
	st := s.Stats()
	if st.Rebuilds != 4 {
		t.Errorf("rebuilds = %d, want 4", st.Rebuilds)
	}
	if got := src.batchCalls.Load(); got != 8 {
		t.Errorf("source batch calls = %d, want 8 (4 builds + 4 rebuilds)", got)
	}
}

// TestInvalidateAllEmptiesRing: the sweep empties the CLOCK ring with
// the entries, so a store swept at capacity refills to capacity without
// evicting, and the next view past it evicts exactly one.
func TestInvalidateAllEmptiesRing(t *testing.T) {
	s := newLocal(&stubSource{}, testPool(4), 8)
	for u := dataset.UserID(0); u < 8; u++ {
		mustAcquire(s, u)
	}
	if dropped := s.InvalidateAll(); dropped != 8 {
		t.Fatalf("sweep dropped %d views, want 8", dropped)
	}
	if len(s.ring) != 0 {
		t.Fatalf("ring kept %v through the sweep", s.ring)
	}
	for u := dataset.UserID(10); u < 18; u++ {
		mustAcquire(s, u)
	}
	if st := s.Stats(); st.Evictions != 0 || st.Size != 8 {
		t.Errorf("refill after the sweep: stats = %+v, want 0 evictions at size 8", st)
	}
	mustAcquire(s, 18)
	if st := s.Stats(); st.Evictions != 1 || st.Size != 8 {
		t.Errorf("one view past capacity: stats = %+v, want 1 eviction at size 8", st)
	}
}
