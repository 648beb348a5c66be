package dataset

import (
	"fmt"
	"slices"
)

// DeltaStats counts live-ingest traffic.
type DeltaStats struct {
	// Pending is always 0: Apply folds each rating where it lands, so
	// nothing waits for a later fold. The field stays for the /v1/stats
	// contract.
	Pending int `json:"pending"`
	// Applied is the lifetime number of Apply calls that succeeded.
	Applied int64 `json:"applied"`
}

// DeltaStats snapshots the ingest counters. The store must be frozen.
func (s *Store) DeltaStats() DeltaStats {
	s.mustFrozen("DeltaStats")
	return DeltaStats{Applied: s.applied.Load()}
}

// CheckItem returns an error wrapping ErrUnknownItem when it is outside
// the catalog — the check Apply makes — and nil otherwise. The store
// must be frozen.
func (s *Store) CheckItem(it ItemID) error {
	s.mustFrozen("CheckItem")
	_, err := s.state.Load().itemPos(it)
	return err
}

// itemPos returns the position of item it, or an error wrapping
// ErrUnknownItem when it is outside the catalog.
func (st *storeState) itemPos(it ItemID) (int, error) {
	i, ok := st.items.Pos(it)
	if !ok {
		return 0, fmt.Errorf("dataset: %w: %d", ErrUnknownItem, it)
	}
	return i, nil
}

// Apply folds one rating into the store. The store must be frozen; the
// user and item must already exist (Apply cannot grow either domain —
// every derived structure is sized to them), and the value must be on
// the 1..5 scale. Violations return errors matchable against
// ErrNotFrozen, ErrUnknownUser, ErrUnknownItem, and ErrBadValue.
//
// The item's rater column and the user's row — each three arrays — are
// copied with r inserted after every entry of equal position — where a
// cold rebuild of the full log puts it — and their cells are swapped.
// The replaced column and row are dropped, not kept beside the new
// ones, so the store holds each rating once in each, at the size a
// cold rebuild gives it. Apply is safe for concurrent use with itself and
// with every read path; the rating is visible to all reads once Apply
// returns.
func (s *Store) Apply(r Rating) error {
	if !s.frozen {
		return fmt.Errorf("dataset: Apply: %w", ErrNotFrozen)
	}
	if err := checkValue(r); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	ui, ok := st.users.Pos(r.User)
	if !ok {
		return fmt.Errorf("dataset: %w: %d", ErrUnknownUser, r.User)
	}
	ii, err := st.itemPos(r.Item)
	if err != nil {
		return err
	}

	colCell := &st.cols[ii]
	colCell.Store(colCell.Load().insert(int32(ui), r.Value, r.Time))

	rowCell := &st.rows[ui]
	rowCell.Store(rowCell.Load().insert(int32(ii), r.Value, r.Time))

	// The totals advance in append order; one item's count rose by one,
	// so it alone moves up the ranking.
	ns := *st
	ns.nRatings++
	ns.sumVal += r.Value
	ns.popRanked = promoteByPopularity(st.popRanked, r.Item, func(it ItemID) int {
		i, _ := st.items.Pos(it)
		return st.cols[i].Load().Len()
	})
	s.state.Store(&ns)
	s.applied.Add(1)
	return nil
}

// insertAt returns a copy of xs with x at position i.
func insertAt[T any](xs []T, x T, i int) []T {
	out := make([]T, len(xs)+1)
	copy(out, xs[:i])
	out[i] = x
	copy(out[i+1:], xs[i:])
	return out
}

// promoteByPopularity returns the popularity ranking after it alone
// gained one rating: a copy of ranked (the old slice may be in a
// lock-free reader's hands) with it moved up past every entry that now
// has a lower count, or an equal count and a higher ID. ranked must be
// in rankByPopularity's order for the counts before the gain, and count
// must report the counts after it; the result is then exactly what
// rankByPopularity would produce, without re-sorting the catalog.
func promoteByPopularity(ranked []ItemID, it ItemID, count func(ItemID) int) []ItemID {
	out := make([]ItemID, len(ranked))
	pos := slices.Index(ranked, it)
	c := count(it)
	to := pos
	for to > 0 {
		prev := ranked[to-1]
		if pc := count(prev); pc > c || (pc == c && prev < it) {
			break
		}
		to--
	}
	copy(out, ranked[:to])
	out[to] = it
	copy(out[to+1:], ranked[to:pos])
	copy(out[pos+1:], ranked[pos+1:])
	return out
}
