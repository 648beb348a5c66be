package cf

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// TestKeepTopMatchesFullSort: the selection returns exactly what a full
// sort truncated to k would, for every k around len and for tie-heavy
// similarities.
func TestKeepTopMatchesFullSort(t *testing.T) {
	order := func(a, b Neighbor) int {
		if a.Sim != b.Sim {
			return cmp.Compare(b.Sim, a.Sim)
		}
		return cmp.Compare(a.User, b.User)
	}
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{0, 1, 2, 49, 50, 51, 400, 2000} {
		for _, k := range []int{1, 2, 50, 51, 3000} {
			for _, levels := range []int{3, 1 << 30} {
				all := make([]Neighbor, n)
				for i := range all {
					all[i] = Neighbor{User: dataset.UserID(5 * i), Sim: float64(1+rng.Intn(levels)) / float64(levels)}
				}
				rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
				want := slices.Clone(all)
				slices.SortFunc(want, order)
				want = want[:min(k, n)]
				if got := keepTop(all, k, order); !slices.Equal(got, want) {
					t.Fatalf("n=%d k=%d levels=%d: keepTop diverges from sort-and-truncate", n, k, levels)
				}
			}
		}
	}
}
