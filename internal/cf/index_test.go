package cf

import (
	"math"
	"testing"

	"repro/internal/dataset"
)

// TestDenseIndexIsTotal pins the dense index over both layouts and both
// instantiations: every ID maps to its position in the ascending list,
// everything else to "absent".
func TestDenseIndexIsTotal(t *testing.T) {
	t.Run("users", checkDenseIndexIsTotal[dataset.UserID])
	t.Run("items", checkDenseIndexIsTotal[dataset.ItemID])
}

func checkDenseIndexIsTotal[K ~int](t *testing.T) {
	for _, ids := range [][]K{
		nil,
		{5},
		{0, 1, 2, 3},
		{-70, -3, 0, 64, 300},
		{math.MinInt64, -9, 0, 7, 1 << 41, math.MaxInt64},
	} {
		ix := newDenseIndex(ids)
		for want, id := range ids {
			if got, ok := ix.of(id); !ok || got != want {
				t.Errorf("ids %v: of(%d) = %d, %v; want %d, true", ids, id, got, ok, want)
			}
		}
		member := make(map[K]bool)
		for _, id := range ids {
			member[id] = true
		}
		for _, id := range []K{math.MinInt64, -71, -4, -1, 0, 1, 4, 6, 63, 299, 301, 1 << 40, math.MaxInt64} {
			if _, ok := ix.of(id); ok != member[id] {
				t.Errorf("ids %v: of(%d) present = %v, want %v", ids, id, ok, member[id])
			}
		}
	}
}
