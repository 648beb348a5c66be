package dataset

import (
	"math"
	"testing"
)

// TestIndexIsTotal pins the index over both layouts and both
// instantiations: every ID maps to its position in the ascending list,
// everything else to "absent".
func TestIndexIsTotal(t *testing.T) {
	t.Run("users", checkIndexIsTotal[UserID])
	t.Run("items", checkIndexIsTotal[ItemID])
}

// indexCases are ID domains over both layouts: dense runs get the
// offset table, spread-out or int-straddling ones the map.
func indexCases[K ~int]() [][]K {
	return [][]K{
		nil,
		{5},
		{0, 1, 2, 3},
		{-70, -3, 0, 64, 300},
		{math.MinInt64, -9, 0, 7, 1 << 41, math.MaxInt64},
	}
}

// indexProbes are IDs in and around every case's domain.
func indexProbes[K ~int]() []K {
	return []K{math.MinInt64, -71, -4, -1, 0, 1, 4, 6, 63, 299, 301, 1 << 40, math.MaxInt64}
}

func checkIndexIsTotal[K ~int](t *testing.T) {
	for i, ids := range indexCases[K]() {
		ix := newIndex(ids)
		checkPositions(t, ids, ix)
		// Only the int-straddling case is too spread out for the table.
		if want := i == len(indexCases[K]())-1; (ix.sparse != nil) != want {
			t.Errorf("ids %v: map layout = %v, want %v", ids, ix.sparse != nil, want)
		}
	}
}

// checkPositions holds ix to ids: every ID at its position, every probe
// outside ids absent.
func checkPositions[K ~int](t *testing.T, ids []K, ix *Index[K]) {
	t.Helper()
	for want, id := range ids {
		if got, ok := ix.Pos(id); !ok || got != want {
			t.Errorf("ids %v: Pos(%d) = %d, %v; want %d, true", ids, id, got, ok, want)
		}
	}
	member := make(map[K]bool)
	for _, id := range ids {
		member[id] = true
	}
	for _, id := range indexProbes[K]() {
		if _, ok := ix.Pos(id); ok != member[id] {
			t.Errorf("ids %v: Pos(%d) present = %v, want %v", ids, id, ok, member[id])
		}
	}
}

// TestStoreIndexesAreTotal builds a store whose users and items are each
// case's IDs — user ids[i] rates item ids[i] — and holds the indexes the
// store hands out, the ones its rater columns and a predictor's dense
// tables are laid out on, to the same contract.
func TestStoreIndexesAreTotal(t *testing.T) {
	for _, ids := range indexCases[int]() {
		var recs []Rating
		for _, id := range ids {
			recs = append(recs, Rating{User: UserID(id), Item: ItemID(id), Value: 3})
		}
		s, err := FromRatings(recs)
		if err != nil {
			t.Fatal(err)
		}
		users := make([]UserID, len(ids))
		items := make([]ItemID, len(ids))
		for i, id := range ids {
			users[i], items[i] = UserID(id), ItemID(id)
		}
		checkPositions(t, users, s.UserIndex())
		checkPositions(t, items, s.ItemIndex())
		for i, it := range items {
			if c := s.Raters(it); c.Len() != 1 || c.Pos[0] != int32(i) {
				t.Errorf("ids %v: Raters(%d) = %+v, want user position %d", ids, it, c, i)
			}
		}
	}
}
