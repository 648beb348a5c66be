// Package dataset provides the collaborative-rating substrate of the
// reproduction: an in-memory rating store, a loader for the MovieLens
// "::"-separated dump format, and a synthetic generator that reproduces
// the marginal statistics of the MovieLens 1M dataset used by the paper
// (Table 5: 6,040 users, 3,952 movies, 1,000,209 ratings on a 1..5
// scale with a long-tailed item popularity distribution).
package dataset

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
)

// UserID identifies a user. IDs are dense small integers starting at 0
// so that stores can be backed by slices.
type UserID int

// ItemID identifies an item (a movie in the paper's evaluation).
type ItemID int

// Rating is one (user, item, value, timestamp) observation. Value is on
// the paper's 1..5 scale; Time is a Unix timestamp in seconds.
type Rating struct {
	User UserID
	Item ItemID
	// Value is the star rating, 1..5 (5 best).
	Value float64
	// Time is the rating timestamp (Unix seconds). The group
	// recommendation pipeline does not need it, but the MovieLens
	// format carries it and the loader preserves it.
	Time int64
}

// Stats summarises a store; it is what Table 5 of the paper reports.
type Stats struct {
	Users   int
	Items   int
	Ratings int
	// MeanRating is the average rating value.
	MeanRating float64
	// MeanRatingsPerUser is Ratings / Users.
	MeanRatingsPerUser float64
}

// Ingest errors, matchable with errors.Is so callers (the HTTP ratings
// endpoint) can map each rejection to a machine-readable code.
var (
	// ErrNotFrozen is returned by Apply before Freeze: live ingest
	// extends a frozen store, it does not replace the loader path.
	ErrNotFrozen = errors.New("store not frozen")
	// ErrUnknownUser rejects ratings by users outside the frozen user
	// set (Apply cannot grow the user domain — every derived
	// structure, from the bitset arena to CF neighborhoods, is sized to
	// it).
	ErrUnknownUser = errors.New("unknown user")
	// ErrUnknownItem rejects ratings of items outside the catalog.
	ErrUnknownItem = errors.New("unknown item")
	// ErrBadValue rejects values outside the paper's 1..5 scale.
	ErrBadValue = errors.New("rating value outside [1,5]")
)

// Store is an in-memory collaborative rating database with both
// user-major and item-major access paths. After Freeze the user and
// item domains are fixed and all query methods are safe for concurrent
// use; live writes go through Apply, which folds each rating into the
// one rater column and the one user row it changes.
//
// After Freeze, per-user state — the rating rows and the rated-item
// bitsets, laid out in one arena — sits in one cell per user, and
// item-major state (the catalog, popularity ranking, per-item rater
// columns) beside it, each cell at its ID's position in the domain's
// Index. The store is one structure whatever the world's shard count: a
// read is lock-free, so partitioning it would save no reader a wait.
//
// Concurrency model: every user row and every rater column sits in a
// cell behind an atomic pointer, and the cell arrays are built at Freeze
// and never change afterwards. A row or column a cell points to is
// never mutated: Apply, serialized by mu, writes a successor and swaps
// the cell, and it swaps the state pointer for the successor totals
// (count, value sum, popularity ranking). Every read is one index
// lookup and one atomic load, with no lock.
type Store struct {
	// byUser and itemCount are the ingest-side accumulation, populated
	// by Add and consumed by Freeze; nil afterwards.
	byUser    map[UserID][]Rating
	itemCount map[ItemID]int
	nRatings  int
	sumVal    float64
	frozen    bool
	// state is the frozen layout plus the current totals; Apply swaps
	// in a successor that shares every cell.
	state atomic.Pointer[storeState]
	// mu serializes Apply.
	mu sync.Mutex
	// applied is the lifetime Apply count.
	applied atomic.Int64
}

// storeState is one snapshot of the store's totals over its fixed cell
// layout. The fields are read-only after construction; the cells they
// point to are where ratings land.
type storeState struct {
	users *Index[UserID]
	items *Index[ItemID]
	// rows[i] is the cell of user Users()[i], cols[i] that of item
	// Items()[i].
	rows     []atomic.Pointer[userRow]
	cols     []atomic.Pointer[Column]
	nRatings int
	sumVal   float64
	// popRanked is the popularity ranking, precomputed so hot-path
	// candidate selection never re-sorts the catalog.
	popRanked []ItemID
	// maskWords is the bitset length in words, 0 when bitsets are
	// unavailable (item IDs too sparse or negative — see
	// bitsetEligible).
	maskWords int
}

// userRow is one user's ratings, sorted by item, and the bitset of the
// items they rated (nil when bitsets are unavailable). Both are
// immutable; Apply replaces the whole row.
type userRow struct {
	ratings []Rating
	rated   Bitset
}

// Column is one item's rater list as parallel arrays — a join index
// from the item to its raters' positions. Entry k is one rating of the
// item by user Users()[Pos[k]], with value Value[k] at time Time[k];
// the item itself is implicit. Entries are in (user, log) order: by
// user ascending, repeated observations of one (user, item) pair in the
// order they were added or applied. A Column a read hands out is shared
// with the store and never written again — a later Apply replaces it —
// so it stays valid; callers must not modify it.
type Column struct {
	Pos   []int32
	Value []float64
	Time  []int64
	// repeats reports whether some user holds more than one entry.
	repeats bool
}

// Len returns the number of entries.
func (c Column) Len() int { return len(c.Pos) }

// Repeats reports whether some user rated the item more than once, so
// that equal positions sit next to each other. A walk that pairs runs
// of equal positions can take every entry as a run of one when it is
// false.
func (c Column) Repeats() bool { return c.repeats }

// insert returns a copy of c with an entry (pos, v, t) after every
// entry of position pos: where a cold rebuild of the full log puts it.
func (c *Column) insert(pos int32, v float64, t int64) *Column {
	i := sort.Search(len(c.Pos), func(k int) bool { return c.Pos[k] > pos })
	return &Column{
		Pos:     insertAt(c.Pos, pos, i),
		Value:   insertAt(c.Value, v, i),
		Time:    insertAt(c.Time, t, i),
		repeats: c.repeats || (i > 0 && c.Pos[i-1] == pos),
	}
}

// Bitset is a fixed-size item-indexed bit vector. The zero value (nil)
// reports no items.
type Bitset []uint64

// Has reports whether item it is set. Out-of-range (including
// negative) IDs report false.
func (b Bitset) Has(it ItemID) bool {
	if it < 0 {
		return false
	}
	w := int(it >> 6)
	return w < len(b) && b[w]>>(uint(it)&63)&1 == 1
}

// set marks item it; the caller guarantees it is in range.
func (b Bitset) set(it ItemID) { b[it>>6] |= 1 << (uint(it) & 63) }

// or merges o into b (same length).
func (b Bitset) or(o Bitset) {
	for i, w := range o {
		b[i] |= w
	}
}

// bitsetMemoryBound caps the total memory spent on per-user rated
// bitsets (64MB). Dense MovieLens-scale stores (6040 users × ~4000
// items ≈ 3MB) are far under it; adversarial loader input with huge or
// negative item IDs disables bitsets instead of exploding.
const bitsetMemoryBound = 64 << 20

// bitsetEligible decides whether per-user bitsets are built for the
// given user and item domains.
func bitsetEligible(users []UserID, items []ItemID) (words int, ok bool) {
	if len(items) == 0 {
		return 0, false
	}
	minItem, maxItem := items[0], items[len(items)-1]
	if minItem < 0 {
		return 0, false
	}
	words = int(maxItem>>6) + 1
	if int64(words)*8*int64(len(users)) > bitsetMemoryBound {
		return 0, false
	}
	return words, true
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{
		byUser:    make(map[UserID][]Rating),
		itemCount: make(map[ItemID]int),
	}
}

// checkValue returns an error wrapping ErrBadValue unless r's value is
// on the 1..5 scale. The test is written so that NaN fails it.
func checkValue(r Rating) error {
	if !(r.Value >= 1 && r.Value <= 5) {
		return fmt.Errorf("dataset: %w: %.2f for user %d item %d", ErrBadValue, r.Value, r.User, r.Item)
	}
	return nil
}

// Add appends one rating. It panics if the store is frozen (adding to a
// frozen store is a programming error in this codebase — live writes go
// through Apply) and returns an error for out-of-domain values so that
// loaders can surface malformed input lines.
func (s *Store) Add(r Rating) error {
	if s.frozen {
		panic("dataset: Add on frozen Store")
	}
	if err := checkValue(r); err != nil {
		return err
	}
	s.byUser[r.User] = append(s.byUser[r.User], r)
	s.itemCount[r.Item]++
	s.nRatings++
	s.sumVal += r.Value
	return nil
}

// FromRatings builds a frozen store from a rating slice, applied in
// order — the snapshot-restore constructor. Feeding back the slice
// DumpRatings produced reproduces the dumped store's reads
// bit-identically.
func FromRatings(recs []Rating) (*Store, error) {
	s := NewStore()
	for _, r := range recs {
		if err := s.Add(r); err != nil {
			return nil, err
		}
	}
	s.Freeze()
	return s, nil
}

// DumpRatings returns every rating in the canonical frozen order:
// users ascending, each row in its stored (item-sorted, ingest-stable)
// order. The order is a fixed point of dump→rebuild→dump, which keeps
// repeated snapshot/restart cycles byte-stable.
func (s *Store) DumpRatings() []Rating {
	var out []Rating
	for _, u := range s.Users() {
		out = append(out, s.ByUser(u)...)
	}
	return out
}

// Freeze sorts the internal indexes and makes the base store read-only.
// User rows are sorted by item, and each item's rater column is laid out
// from the sorted rows in user order, which gives deterministic
// iteration and enables merge-style similarity scans. The row sort is
// stable so that duplicate (user, item) observations keep their ingest
// order in both — the order Apply's insertion point preserves, so a
// live store is bit-identical to a cold rebuild of the same sequence.
func (s *Store) Freeze() {
	if s.frozen {
		return
	}
	if len(s.byUser) > math.MaxInt32 {
		panic("dataset: more users than a rater column can position")
	}
	users := make([]UserID, 0, len(s.byUser))
	for u, rs := range s.byUser {
		slices.SortStableFunc(rs, func(a, b Rating) int { return cmp.Compare(a.Item, b.Item) })
		users = append(users, u)
	}
	slices.Sort(users)
	items := make([]ItemID, 0, len(s.itemCount))
	for it := range s.itemCount {
		items = append(items, it)
	}
	slices.Sort(items)
	st := &storeState{
		users:    newIndex(users),
		items:    newIndex(items),
		nRatings: s.nRatings,
		sumVal:   s.sumVal,
	}
	st.layoutColumns(s.byUser, s.itemCount)

	// Popularity ranking, computed once: descending rating count with
	// ascending-ID ties (the paper's "popular set" order).
	st.popRanked = rankByPopularity(items, func(it ItemID) int { return s.itemCount[it] })

	// Lay out the user rows; the ingest maps are cleared so post-freeze
	// reads have one source of truth.
	st.layoutRows(s.byUser)
	s.byUser = nil
	s.itemCount = nil
	s.state.Store(st)
	s.frozen = true
}

// layoutColumns builds the rater column cells from the item-sorted user
// rows: walking the users in position order and each row in its order
// appends every item's entries in (user, log) order. Each column — its
// header and its arrays, sized by count — is its own allocation, so a
// column Apply replaced can be freed.
func (st *storeState) layoutColumns(byUser map[UserID][]Rating, count map[ItemID]int) {
	cols := make([]Column, len(st.items.ids))
	for i, it := range st.items.ids {
		n := count[it]
		cols[i] = Column{Pos: make([]int32, 0, n), Value: make([]float64, 0, n), Time: make([]int64, 0, n)}
	}
	for ui, u := range st.users.ids {
		for _, r := range byUser[u] {
			ii, _ := st.items.Pos(r.Item)
			c := &cols[ii]
			if n := len(c.Pos); n > 0 && c.Pos[n-1] == int32(ui) {
				c.repeats = true
			}
			c.Pos = append(c.Pos, int32(ui))
			c.Value = append(c.Value, r.Value)
			c.Time = append(c.Time, r.Time)
		}
	}
	st.cols = make([]atomic.Pointer[Column], len(cols))
	for i, c := range cols {
		st.cols[i].Store(&c)
	}
}

// rankByPopularity sorts a copy of items by descending count with
// ascending-ID ties. Freeze ranks through this function; Apply moves
// one item instead (promoteByPopularity) and is held to this order by a
// differential test.
func rankByPopularity(items []ItemID, count func(ItemID) int) []ItemID {
	ranked := make([]ItemID, len(items))
	copy(ranked, items)
	slices.SortFunc(ranked, func(a, b ItemID) int {
		if c := cmp.Compare(count(b), count(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return ranked
}

// layoutRows builds the user row cells from a user-keyed rating map,
// with one contiguous bitset arena over every user when item IDs are
// dense enough.
func (st *storeState) layoutRows(byUser map[UserID][]Rating) {
	users := st.users.ids
	words, bitsets := bitsetEligible(users, st.items.ids)
	st.maskWords = words
	backing := make([]uint64, words*len(users))
	st.rows = make([]atomic.Pointer[userRow], len(users))
	for i, u := range users {
		// Each row is its own allocation: one shared array would keep
		// every replaced row's ratings reachable.
		row := &userRow{ratings: byUser[u]}
		if bitsets {
			row.rated = Bitset(backing[i*words : (i+1)*words])
			for _, r := range row.ratings {
				row.rated.set(r.Item)
			}
		}
		st.rows[i].Store(row)
	}
}

// row returns u's current row, nil for a user outside the store.
func (st *storeState) row(u UserID) *userRow {
	if i, ok := st.users.Pos(u); ok {
		return st.rows[i].Load()
	}
	return nil
}

// GroupRatedMask returns the union of the rated-item bitsets of the
// given users, or nil when bitsets are unavailable (unfrozen store, or
// item IDs too sparse/negative — see bitsetEligible). Users absent
// from the store contribute nothing. The result is freshly allocated;
// the caller owns it.
func (s *Store) GroupRatedMask(users []UserID) Bitset {
	if !s.frozen {
		return nil
	}
	st := s.state.Load()
	if st.maskWords == 0 {
		return nil
	}
	mask := make(Bitset, st.maskWords)
	for _, u := range users {
		if row := st.row(u); row != nil {
			mask.or(row.rated)
		}
	}
	return mask
}

// Frozen reports whether Freeze has been called.
func (s *Store) Frozen() bool { return s.frozen }

// Users returns all user IDs in ascending order. The store must be
// frozen. The returned slice is shared; callers must not modify it.
func (s *Store) Users() []UserID {
	s.mustFrozen("Users")
	return s.state.Load().users.ids
}

// Items returns all item IDs in ascending order (shared slice).
func (s *Store) Items() []ItemID {
	s.mustFrozen("Items")
	return s.state.Load().items.ids
}

// UserIndex returns the index of the user domain: a user's position in
// Users(), the position a rater column records. The store must be
// frozen; the index is fixed and shared.
func (s *Store) UserIndex() *Index[UserID] {
	s.mustFrozen("UserIndex")
	return s.state.Load().users
}

// ItemIndex returns the index of the item domain: an item's position in
// Items(). The store must be frozen; the index is fixed and shared.
func (s *Store) ItemIndex() *Index[ItemID] {
	s.mustFrozen("ItemIndex")
	return s.state.Load().items
}

// ByUser returns the ratings of u sorted by item (nil if u is not in
// the store). The slice is shared with the store and never written
// again — a later Apply replaces it — so it stays valid; callers must
// not modify it.
func (s *Store) ByUser(u UserID) []Rating {
	s.mustFrozen("ByUser")
	if row := s.state.Load().row(u); row != nil {
		return row.ratings
	}
	return nil
}

// Raters returns the rater column of item it (empty if it is not in
// the store). The column is shared with the store and never written
// again — a later Apply replaces it — so it stays valid; callers must
// not modify it.
func (s *Store) Raters(it ItemID) Column {
	s.mustFrozen("Raters")
	st := s.state.Load()
	if i, ok := st.items.Pos(it); ok {
		return *st.cols[i].Load()
	}
	return Column{}
}

// Value returns the rating of u for it and whether it exists. When the
// store holds several observations of the same (user, item) pair the
// first one wins — the leftmost entry of u's stable-sorted row.
func (s *Store) Value(u UserID, it ItemID) (float64, bool) {
	if !s.frozen {
		for _, r := range s.byUser[u] {
			if r.Item == it {
				return r.Value, true
			}
		}
		return 0, false
	}
	row := s.state.Load().row(u)
	if row == nil {
		return 0, false
	}
	rs := row.ratings
	i := sort.Search(len(rs), func(i int) bool { return rs[i].Item >= it })
	if i < len(rs) && rs[i].Item == it {
		return rs[i].Value, true
	}
	return 0, false
}

// HasRated reports whether user u has rated item it.
func (s *Store) HasRated(u UserID, it ItemID) bool {
	if s.frozen {
		if st := s.state.Load(); st.maskWords > 0 {
			row := st.row(u)
			return row != nil && row.rated.Has(it)
		}
	}
	_, ok := s.Value(u, it)
	return ok
}

// NumRatings returns the number of ratings stored.
func (s *Store) NumRatings() int {
	if !s.frozen {
		return s.nRatings
	}
	return s.state.Load().nRatings
}

// Stats computes the Table-5 style summary. The value sum accumulates
// in append order (Freeze's Add sequence, then each Apply), the same
// float summation order a cold rebuild of the full log uses.
func (s *Store) Stats() Stats {
	s.mustFrozen("Stats")
	st := s.state.Load()
	stats := Stats{
		Users:   len(st.users.ids),
		Items:   len(st.items.ids),
		Ratings: st.nRatings,
	}
	if st.nRatings > 0 {
		stats.MeanRating = st.sumVal / float64(st.nRatings)
	}
	if stats.Users > 0 {
		stats.MeanRatingsPerUser = float64(stats.Ratings) / float64(stats.Users)
	}
	return stats
}

// ItemPopularity returns items sorted by descending rating count — the
// paper's "popular set" selection (top-50 by popularity) uses this.
// The ranking is precomputed (and kept current by Apply); this returns
// a fresh copy the caller may reorder.
func (s *Store) ItemPopularity() []ItemID {
	s.mustFrozen("ItemPopularity")
	ranked := s.PopularityRanked()
	out := make([]ItemID, len(ranked))
	copy(out, ranked)
	return out
}

// PopularityRanked returns the precomputed popularity ranking as a
// shared slice for hot paths. Callers must not modify it. Apply moves
// the rated item into place, so it matches what a cold rebuild would
// precompute.
func (s *Store) PopularityRanked() []ItemID {
	s.mustFrozen("PopularityRanked")
	return s.state.Load().popRanked
}

// ItemRatingVariance returns the population variance of the ratings of
// item it — the paper's "diversity set" picks the 25 highest-variance
// items among the top-200 popular ones.
func (s *Store) ItemRatingVariance(it ItemID) float64 {
	vs := s.Raters(it).Value
	n := len(vs)
	if n == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	mean := sum / float64(n)
	var ss float64
	for _, v := range vs {
		d := v - mean
		ss += d * d
	}
	return ss / float64(n)
}

// PopularSet returns the n most-rated items (the paper uses n=50).
func (s *Store) PopularSet(n int) []ItemID {
	pop := s.ItemPopularity()
	if n > len(pop) {
		n = len(pop)
	}
	return pop[:n]
}

// DiversitySet returns the nDiverse items with the highest rating
// variance among the topPop most popular items (the paper uses
// nDiverse=25, topPop=200).
func (s *Store) DiversitySet(nDiverse, topPop int) []ItemID {
	pop := s.PopularSet(topPop)
	cp := make([]ItemID, len(pop))
	copy(cp, pop)
	sort.Slice(cp, func(i, j int) bool {
		vi, vj := s.ItemRatingVariance(cp[i]), s.ItemRatingVariance(cp[j])
		if vi != vj {
			return vi > vj
		}
		return cp[i] < cp[j]
	})
	if nDiverse > len(cp) {
		nDiverse = len(cp)
	}
	out := make([]ItemID, nDiverse)
	copy(out, cp[:nDiverse])
	return out
}

func (s *Store) mustFrozen(op string) {
	if !s.frozen {
		panic("dataset: " + op + " requires a frozen Store")
	}
}
