package cf

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// benchWorld is the bench workloads' world: 2 000 users × 1 500 items ×
// 150 000 ratings.
func benchWorld(b *testing.B) *dataset.Store {
	b.Helper()
	cfg := dataset.DefaultSynthConfig()
	cfg.Users, cfg.Items, cfg.TargetRatings = 2000, 1500, 150_000
	syn, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return syn.Store
}

// BenchmarkNeighborhoodFill is the unit a dropped neighborhood makes the
// serving path pay again: one cold fill of a neighborhood and its drop,
// cycling over 64 users of the bench workloads' world so every fill
// after the first round is a refill of a dropped entry.
func BenchmarkNeighborhoodFill(b *testing.B) {
	s := benchWorld(b)
	p, err := NewPredictor(s, DefaultNeighbors)
	if err != nil {
		b.Fatal(err)
	}
	users := s.Users()
	for _, u := range users {
		p.norm(u) // norms survive a rating by anyone else; fills find them cached
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		u := users[(n%64)*len(users)/64]
		if len(p.Neighbors(u)) == 0 {
			b.Fatalf("user %d has no neighbors", u)
		}
		p.dropNeighborhood(u)
	}
}

// BenchmarkRatingRepair counts what ingest_mix's rating stream does to
// the cached neighborhoods at three margins M (k = 50): 600 users'
// neighborhoods are cached, and each op applies one rating drawn the
// way the bench draws them — a uniform user, one of the 600 most-rated
// items, a value of 1 to 5 — then refills what it dropped, as the next
// read of those users would. It reports repairs and drops per rating;
// run it at the length of a bench block (≈ 1 100 ratings) or two:
//
//	go test -run '^$' -bench BenchmarkRatingRepair -benchtime 2200x ./internal/cf
func BenchmarkRatingRepair(b *testing.B) {
	for _, div := range []int{5, 2, 1} {
		b.Run(fmt.Sprintf("M=k/%d", div), func(b *testing.B) {
			s := benchWorld(b)
			p, err := NewPredictor(s, DefaultNeighbors)
			if err != nil {
				b.Fatal(err)
			}
			p.keep = p.k + p.k/div
			users := s.Users()
			warm := make([]dataset.UserID, 600)
			for i := range warm {
				warm[i] = users[i*len(users)/len(warm)]
				p.Neighbors(warm[i])
			}
			items := slices.Clone(s.Items())
			slices.SortStableFunc(items, func(a, c dataset.ItemID) int { return s.Raters(c).Len() - s.Raters(a).Len() })
			items = items[:600]
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				r := dataset.Rating{
					User:  users[rng.Intn(len(users))],
					Item:  items[rng.Intn(len(items))],
					Value: float64(1 + rng.Intn(5)),
					Time:  int64(n),
				}
				if err := s.Apply(r); err != nil {
					b.Fatal(err)
				}
				p.NoteIngestScoped(r.User, r.Item)
				for _, u := range warm {
					p.Neighbors(u)
				}
			}
			repairs, drops := p.work.repaired.Load(), p.work.repairDrops.Load()
			b.ReportMetric(float64(repairs)/float64(b.N), "repairs/rating")
			b.ReportMetric(float64(drops)/float64(b.N), "drops/rating")
		})
	}
}
