package dataset

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"
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
	_, err := s.state.Load().itemCell(it)
	return err
}

// itemCell returns the rater-list cell of item it, or an error
// wrapping ErrUnknownItem when it is outside the catalog.
func (st *storeState) itemCell(it ItemID) (*atomic.Pointer[[]Rating], error) {
	cell := st.byItem[it]
	if cell == nil {
		return nil, fmt.Errorf("dataset: %w: %d", ErrUnknownItem, it)
	}
	return cell, nil
}

// Apply folds one rating into the store. The store must be frozen; the
// user and item must already exist (Apply cannot grow either domain —
// every derived structure is sized to them), and the value must be on
// the 1..5 scale. Violations return errors matchable against
// ErrNotFrozen, ErrUnknownUser, ErrUnknownItem, and ErrBadValue.
//
// The item's rater list and the user's row are copied with r inserted
// after every entry of equal key — where a cold rebuild's stable sort
// of the full log puts it — and their cells are swapped; the user's
// rated bitset is copied on write. The replaced lists are dropped, not
// kept beside the new ones, so the store holds each rating once. Apply
// is safe for concurrent use with itself and with every read path; the
// rating is visible to all reads once Apply returns.
func (s *Store) Apply(r Rating) error {
	if !s.frozen {
		return fmt.Errorf("dataset: Apply: %w", ErrNotFrozen)
	}
	if r.Value < 1 || r.Value > 5 {
		return fmt.Errorf("dataset: %w: %.2f for user %d item %d", ErrBadValue, r.Value, r.User, r.Item)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.state.Load()
	userCell := st.byUser[r.User]
	if userCell == nil {
		return fmt.Errorf("dataset: %w: %d", ErrUnknownUser, r.User)
	}
	itemCell, err := st.itemCell(r.Item)
	if err != nil {
		return err
	}

	raters := *itemCell.Load()
	raters = insertAt(raters, r, sort.Search(len(raters), func(i int) bool { return raters[i].User > r.User }))
	itemCell.Store(&raters)

	old := userCell.Load()
	row := &userRow{rated: old.rated}
	rs := old.ratings
	row.ratings = insertAt(rs, r, sort.Search(len(rs), func(i int) bool { return rs[i].Item > r.Item }))
	if st.maskWords > 0 && !old.rated.Has(r.Item) {
		row.rated = slices.Clone(old.rated)
		row.rated.set(r.Item)
	}
	userCell.Store(row)

	// The totals advance in append order; one item's count rose by one,
	// so it alone moves up the ranking.
	ns := *st
	ns.nRatings++
	ns.sumVal += r.Value
	ns.popRanked = promoteByPopularity(st.popRanked, r.Item, func(it ItemID) int {
		return len(*st.byItem[it].Load())
	})
	s.state.Store(&ns)
	s.applied.Add(1)
	return nil
}

// insertAt returns a copy of rs with r at position i.
func insertAt(rs []Rating, r Rating, i int) []Rating {
	out := make([]Rating, len(rs)+1)
	copy(out, rs[:i])
	out[i] = r
	copy(out[i+1:], rs[i:])
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
