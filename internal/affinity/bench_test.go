package affinity

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/social"
)

// benchNetwork returns the population, timeline and source of the bench
// workloads' world: the synthetic network at 600 participants in 50
// communities over six two-month periods, 179 700 pairs per table.
func benchNetwork(tb testing.TB) ([]dataset.UserID, Timeline, NetworkSource) {
	return synthNetwork(tb, 600, 50)
}

// synthNetwork returns the population, TwoMonth timeline and source of
// the synthetic network at n participants in the given communities.
func synthNetwork(tb testing.TB, n, communities int) ([]dataset.UserID, Timeline, NetworkSource) {
	cfg := social.DefaultSynthConfig()
	cfg.Users, cfg.Communities = n, communities
	sn, err := social.GenerateNetwork(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	users := make([]dataset.UserID, cfg.Users)
	for i := range users {
		users[i] = dataset.UserID(i)
	}
	return users, Segment(cfg.Start, cfg.End, TwoMonth), NetworkSource{Network: sn.Network}
}

// BenchmarkBuildModel builds the affinity model from the sources'
// counted stats: n=600 is the bench workloads' world, and n=5000 the
// same network shape at 12 participants per community (reported, not
// in the baseline).
func BenchmarkBuildModel(b *testing.B) {
	for _, size := range []struct{ n, communities int }{{600, 50}, {5000, 417}} {
		b.Run(fmt.Sprintf("n=%d", size.n), func(b *testing.B) {
			users, tl, src := synthNetwork(b, size.n, size.communities)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := BuildModel(users, tl, src, src); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupAffinity is one request's pair read on the same model:
// the static row and six drift rows of a group, into rows the caller
// owns, cycling over 64 seeded groups of each size.
func BenchmarkGroupAffinity(b *testing.B) {
	users, tl, src := benchNetwork(b)
	m, err := BuildModel(users, tl, src, src)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range []int{3, 5} {
		groups := make([][]dataset.UserID, 64)
		for x := range groups {
			for _, i := range rng.Perm(len(users))[:g] {
				groups[x] = append(groups[x], users[i])
			}
		}
		static := make([]float64, g*(g-1)/2)
		drift := make([][]float64, tl.NumPeriods())
		for t := range drift {
			drift[t] = make([]float64, len(static))
		}
		b.Run(fmt.Sprintf("g=%d", g), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.GroupAffinity(groups[i%len(groups)], static, drift)
			}
		})
	}
}
