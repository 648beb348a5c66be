package cf

import (
	"math"
	"testing"

	"repro/internal/dataset"
)

// TestDenseIndexIsTotal pins the predictor's position lookups — the
// store's user and item indexes, which the walk, the norm table, the
// batch kernel's slot table and the fallback means share — over both
// index layouts: every ID of the store maps to its position in the
// ascending list, everything else to "absent", and a predictor over any
// such store answers for every ID, known or not.
func TestDenseIndexIsTotal(t *testing.T) {
	t.Run("users", func(t *testing.T) {
		checkDenseIndexIsTotal(t, func(p *Predictor, id int) (int, bool) { return p.users.Pos(dataset.UserID(id)) })
	})
	t.Run("items", func(t *testing.T) {
		checkDenseIndexIsTotal(t, func(p *Predictor, id int) (int, bool) { return p.items.Pos(dataset.ItemID(id)) })
	})
}

func checkDenseIndexIsTotal(t *testing.T, pos func(*Predictor, int) (int, bool)) {
	for _, ids := range [][]int{
		nil,
		{5},
		{0, 1, 2, 3},
		{-70, -3, 0, 64, 300},
		{math.MinInt64, -9, 0, 7, 1 << 41, math.MaxInt64},
	} {
		// User ids[i] rates item ids[i]: both domains are ids.
		var recs []dataset.Rating
		for _, id := range ids {
			recs = append(recs, dataset.Rating{User: dataset.UserID(id), Item: dataset.ItemID(id), Value: 3})
		}
		s, err := dataset.FromRatings(recs)
		if err != nil {
			t.Fatal(err)
		}
		p, err := NewPredictor(s, 5)
		if err != nil {
			t.Fatal(err)
		}
		for want, id := range ids {
			if got, ok := pos(p, id); !ok || got != want {
				t.Errorf("ids %v: of(%d) = %d, %v; want %d, true", ids, id, got, ok, want)
			}
		}
		member := make(map[int]bool)
		for _, id := range ids {
			member[id] = true
		}
		for _, id := range []int{math.MinInt64, -71, -4, -1, 0, 1, 4, 6, 63, 299, 301, 1 << 40, math.MaxInt64} {
			if _, ok := pos(p, id); ok != member[id] {
				t.Errorf("ids %v: of(%d) present = %v, want %v", ids, id, ok, member[id])
			}
			u, it := dataset.UserID(id), dataset.ItemID(id)
			want := globalMean(p)
			if member[id] {
				want = 3 // the user's own rating of the item
			}
			if got := p.Predict(u, it); got != want {
				t.Errorf("ids %v: Predict(%d, %d) = %v, want %v", ids, id, id, got, want)
			}
			if nb := p.Neighbors(u); len(nb) != 0 {
				t.Errorf("ids %v: user %d shares no item yet has neighbors %v", ids, id, nb)
			}
		}
	}
}
