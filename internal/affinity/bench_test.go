package affinity

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/social"
)

// BenchmarkBuildModel builds the affinity model of the bench workloads'
// world: the synthetic network at 600 participants in 50 communities
// over six two-month periods, 179 700 pairs in seven tables.
func BenchmarkBuildModel(b *testing.B) {
	cfg := social.DefaultSynthConfig()
	cfg.Users, cfg.Communities = 600, 50
	sn, err := social.GenerateNetwork(cfg)
	if err != nil {
		b.Fatal(err)
	}
	users := make([]dataset.UserID, cfg.Users)
	for i := range users {
		users[i] = dataset.UserID(i)
	}
	tl := Segment(cfg.Start, cfg.End, TwoMonth)
	src := NetworkSource{Network: sn.Network}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BuildModel(users, tl, src, src); err != nil {
			b.Fatal(err)
		}
	}
}
