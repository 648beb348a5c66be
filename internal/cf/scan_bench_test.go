package cf

import (
	"testing"

	"repro/internal/dataset"
)

// BenchmarkNeighborhoodFill is the unit a rating makes the serving path
// pay again: one cold fill of a neighborhood and its drop, cycling over
// 64 users of the bench workloads' world (2 000 users × 1 500 items ×
// 150 000 ratings) so every fill after the first round is a refill of a
// dropped entry.
func BenchmarkNeighborhoodFill(b *testing.B) {
	cfg := dataset.DefaultSynthConfig()
	cfg.Users, cfg.Items, cfg.TargetRatings = 2000, 1500, 150_000
	syn, err := dataset.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := syn.Store
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
