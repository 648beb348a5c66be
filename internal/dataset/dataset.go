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
	// structure, from the rater columns to CF neighborhoods, is sized to
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
// After Freeze the store is one join index in both directions: each
// user's row is a Column over item positions, each item's rater column
// a Column over user positions, and each sits in one cell at its ID's
// position in the domain's Index. A rating is held once in each, as a
// position, a value and a time, and every array is sized to its
// entries. The store is one structure whatever the world's shard count:
// a read is lock-free, so partitioning it would save no reader a wait.
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
	// rows[i] is the cell of user Users()[i], its positions in Items();
	// cols[i] that of item Items()[i], its positions in Users().
	rows     []atomic.Pointer[Column]
	cols     []atomic.Pointer[Column]
	nRatings int
	sumVal   float64
	// popRanked is the popularity ranking, precomputed so hot-path
	// candidate selection never re-sorts the catalog.
	popRanked []ItemID
}

// Column is one list of the store's join index as parallel arrays: a
// user's row, whose positions are in Items(), or an item's rater
// column, whose positions are in Users(). Entry k is one rating of (or
// by) the entity at position Pos[k], with value Value[k] at time
// Time[k]; the list's owner is implicit. Entries are in (position, log)
// order: by position ascending — which is ID order — and repeated
// observations of one (user, item) pair in the order they were added or
// applied. A Column a read hands out is shared with the store and never
// written again — a later Apply replaces it — so it stays valid;
// callers must not modify it.
type Column struct {
	Pos   []int32
	Value []float64
	Time  []int64
	// repeats reports whether some position holds more than one entry.
	repeats bool
}

// Len returns the number of entries.
func (c Column) Len() int { return len(c.Pos) }

// Repeats reports whether some (user, item) pair was rated more than
// once, so that equal positions sit next to each other. A walk that
// pairs runs of equal positions can take every entry as a run of one
// when it is false.
func (c Column) Repeats() bool { return c.repeats }

// makeColumn returns an empty column with room for exactly n entries.
func makeColumn(n int) Column {
	return Column{Pos: make([]int32, 0, n), Value: make([]float64, 0, n), Time: make([]int64, 0, n)}
}

// add appends the entry (pos, v, t), which must not precede the last
// one, into the room makeColumn left.
func (c *Column) add(pos int32, v float64, t int64) {
	if n := len(c.Pos); n > 0 && c.Pos[n-1] == pos {
		c.repeats = true
	}
	c.Pos = append(c.Pos, pos)
	c.Value = append(c.Value, v)
	c.Time = append(c.Time, t)
}

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
	s.mustFrozen("DumpRatings")
	st := s.state.Load()
	out := make([]Rating, 0, st.nRatings)
	for _, u := range st.users.ids {
		out = st.appendRow(out, u)
	}
	return out
}

// Freeze sorts the internal indexes and makes the base store read-only.
// Each item's rater column is sorted by user and each user's row by
// item, which gives deterministic iteration and enables merge-style
// similarity scans. Duplicate (user, item) observations keep their
// ingest order in both — the order Apply's insertion point preserves,
// so a live store is bit-identical to a cold rebuild of the same
// sequence. Every row and column is laid out at the size its count
// gives, and the Add-grown ingest slices are dropped.
func (s *Store) Freeze() {
	if s.frozen {
		return
	}
	if len(s.byUser) > math.MaxInt32 || len(s.itemCount) > math.MaxInt32 {
		panic("dataset: more users or items than a column can position")
	}
	users := make([]UserID, 0, len(s.byUser))
	for u := range s.byUser {
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
	st.layout(s.byUser, s.itemCount)

	// Popularity ranking, computed once: descending rating count with
	// ascending-ID ties (the paper's "popular set" order).
	st.popRanked = rankByPopularity(items, func(it ItemID) int { return s.itemCount[it] })

	// The ingest maps are cleared so post-freeze reads have one source
	// of truth.
	s.byUser = nil
	s.itemCount = nil
	s.state.Store(st)
	s.frozen = true
}

// layout builds the column and row cells from the users' logs with no
// comparison sort. Walking the users in position order and each log in
// its order appends every item's entries in (user, log) order; walking
// those columns in item position order then appends every user's
// entries in (item, log) order — the stable sort of the log by item.
// Each row and each column — its header and its arrays, sized by count
// — is its own allocation, so one that Apply replaced can be freed.
func (st *storeState) layout(byUser map[UserID][]Rating, count map[ItemID]int) {
	cols := make([]Column, len(st.items.ids))
	for i, it := range st.items.ids {
		cols[i] = makeColumn(count[it])
	}
	rows := make([]Column, len(st.users.ids))
	for ui, u := range st.users.ids {
		rows[ui] = makeColumn(len(byUser[u]))
		for _, r := range byUser[u] {
			ii, _ := st.items.Pos(r.Item)
			cols[ii].add(int32(ui), r.Value, r.Time)
		}
	}
	for ii, c := range cols {
		for k, ui := range c.Pos {
			rows[ui].add(int32(ii), c.Value[k], c.Time[k])
		}
	}
	st.rows = cells(rows)
	st.cols = cells(cols)
}

// cells puts each column behind its own atomic pointer.
func cells(cs []Column) []atomic.Pointer[Column] {
	out := make([]atomic.Pointer[Column], len(cs))
	for i, c := range cs {
		out[i].Store(&c)
	}
	return out
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

// row returns u's current row, empty for a user outside the store.
func (st *storeState) row(u UserID) Column {
	if i, ok := st.users.Pos(u); ok {
		return *st.rows[i].Load()
	}
	return Column{}
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

// Row returns u's row: its entries' positions are in Items() (empty
// if u is not in the store). The row is shared with the store and never
// written again — a later Apply replaces it — so it stays valid;
// callers must not modify it.
func (s *Store) Row(u UserID) Column {
	s.mustFrozen("Row")
	return s.state.Load().row(u)
}

// RowAt returns the row of the user at position ui in Users(), as Row.
func (s *Store) RowAt(ui int) Column {
	s.mustFrozen("RowAt")
	return *s.state.Load().rows[ui].Load()
}

// ByUser returns the ratings of u sorted by item (nil if u is not in
// the store), rebuilt from u's row into a fresh slice the caller owns.
// It allocates; hot paths read Row.
func (s *Store) ByUser(u UserID) []Rating {
	s.mustFrozen("ByUser")
	return s.state.Load().appendRow(nil, u)
}

// appendRow appends u's row to out as ratings.
func (st *storeState) appendRow(out []Rating, u UserID) []Rating {
	row, items := st.row(u), st.items.ids
	out = slices.Grow(out, row.Len())
	for k, ii := range row.Pos {
		out = append(out, Rating{User: u, Item: items[ii], Value: row.Value[k], Time: row.Time[k]})
	}
	return out
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

// RatersAt returns the rater column of the item at position ii in
// Items(), as Raters.
func (s *Store) RatersAt(ii int) Column {
	s.mustFrozen("RatersAt")
	return *s.state.Load().cols[ii].Load()
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
	st := s.state.Load()
	ii, ok := st.items.Pos(it)
	if !ok {
		return 0, false
	}
	row := st.row(u)
	k := sort.Search(row.Len(), func(k int) bool { return row.Pos[k] >= int32(ii) })
	if k < row.Len() && row.Pos[k] == int32(ii) {
		return row.Value[k], true
	}
	return 0, false
}

// UnratedPopular returns up to n of the most popular items that no user
// in group has rated, in PopularityRanked order — the paper's candidate
// pool with the problem-definition exclusion applied. n <= 0 returns
// every unrated item. The members' rows are OR-ed into one bitset over
// item positions up front, so the walk costs one index lookup and one
// bit test per ranked item whatever the item IDs are. Users absent
// from the store rate nothing.
func (s *Store) UnratedPopular(group []UserID, n int) []ItemID {
	s.mustFrozen("UnratedPopular")
	st := s.state.Load()
	ranked := st.popRanked
	if n <= 0 || n > len(ranked) {
		n = len(ranked)
	}
	rated := make([]uint64, (len(ranked)+63)>>6)
	for _, u := range group {
		for _, ii := range st.row(u).Pos {
			rated[ii>>6] |= 1 << (uint(ii) & 63)
		}
	}
	out := make([]ItemID, 0, n)
	for _, it := range ranked {
		ii, _ := st.items.Pos(it)
		if rated[ii>>6]>>(uint(ii)&63)&1 == 1 {
			continue
		}
		if out = append(out, it); len(out) == n {
			break
		}
	}
	return out
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
	type itemVariance struct {
		id ItemID
		vr float64
	}
	byVar := make([]itemVariance, len(pop))
	for i, it := range pop {
		byVar[i] = itemVariance{id: it, vr: s.ItemRatingVariance(it)}
	}
	sort.Slice(byVar, func(i, j int) bool {
		if byVar[i].vr != byVar[j].vr {
			return byVar[i].vr > byVar[j].vr
		}
		return byVar[i].id < byVar[j].id
	})
	out := make([]ItemID, min(nDiverse, len(byVar)))
	for i := range out {
		out[i] = byVar[i].id
	}
	return out
}

func (s *Store) mustFrozen(op string) {
	if !s.frozen {
		panic("dataset: " + op + " requires a frozen Store")
	}
}
