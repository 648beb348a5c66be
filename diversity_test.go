package repro_test

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/dataset"
)

// referenceDiversitySet is DiversitySet as it first stood: a sort of
// the topPop most popular items that recomputes both items' rating
// variances in every comparison.
func referenceDiversitySet(s *dataset.Store, nDiverse, topPop int) []dataset.ItemID {
	cp := slices.Clone(s.PopularSet(topPop))
	sort.Slice(cp, func(i, j int) bool {
		vi, vj := s.ItemRatingVariance(cp[i]), s.ItemRatingVariance(cp[j])
		if vi != vj {
			return vi > vj
		}
		return cp[i] < cp[j]
	})
	return cp[:min(nDiverse, len(cp))]
}

// TestDiversitySetKeepsTheReferenceOrder pins the study's diversity set
// (25 of the 200 most popular items) to the reference sort, on the
// QuickConfig store and on a store whose items tie on variance, so the
// ID tie-break decides most of the order.
func TestDiversitySetKeepsTheReferenceOrder(t *testing.T) {
	var recs []dataset.Rating
	// Item it has 2 or 4 raters whose values alternate between one of
	// three (lo, hi) pairs: the variance depends on the pair alone, so
	// every variance is shared by about a third of the 40 items.
	pairs := [][2]float64{{3, 3}, {2, 4}, {1, 5}}
	for it := 1; it <= 40; it++ {
		pair := pairs[it%3]
		for r := 0; r < 2+2*(it%2); r++ {
			recs = append(recs, dataset.Rating{User: dataset.UserID(r + 1), Item: dataset.ItemID(it), Value: pair[r%2], Time: 978300000})
		}
	}
	tied, err := dataset.FromRatings(recs)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		store *dataset.Store
	}{
		{"quick", contextWorld(t).Ratings()},
		{"tied", tied},
	} {
		got, want := tc.store.DiversitySet(25, 200), referenceDiversitySet(tc.store, 25, 200)
		if len(want) != 25 {
			t.Fatalf("%s: reference set has %d items, want 25", tc.name, len(want))
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: DiversitySet(25, 200) = %v, want %v", tc.name, got, want)
		}
	}
}
