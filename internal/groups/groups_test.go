package groups

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/affinity"
	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/social"
)

// testWorld builds a small predictor + affinity model for group tests.
func testWorld(t *testing.T) (*cf.Predictor, *affinity.Model, []dataset.UserID) {
	t.Helper()
	dcfg := dataset.DefaultSynthConfig()
	dcfg.Users = 72
	dcfg.Items = 300
	dcfg.TargetRatings = 6000
	sy, err := dataset.Generate(dcfg)
	if err != nil {
		t.Fatalf("dataset: %v", err)
	}
	pred, err := cf.NewPredictor(sy.Store, 20)
	if err != nil {
		t.Fatalf("predictor: %v", err)
	}
	sn, err := social.GenerateNetwork(social.DefaultSynthConfig())
	if err != nil {
		t.Fatalf("network: %v", err)
	}
	users := make([]dataset.UserID, 72)
	for i := range users {
		users[i] = dataset.UserID(i)
	}
	tl := affinity.Segment(sn.Config.Start, sn.Config.End, affinity.TwoMonth)
	src := affinity.NetworkSource{Network: sn.Network}
	model, err := affinity.BuildModel(users, tl, src, src)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return pred, model, users
}

func TestPairIndexing(t *testing.T) {
	// Via the core package the pair order is canonical; here we only
	// need group invariants.
	pred, model, pool := testWorld(t)
	f := NewFormer(pred, model, rand.New(rand.NewSource(3)))

	g := f.Random(pool, 6)
	if len(g.Members) != 6 {
		t.Fatalf("size = %d", len(g.Members))
	}
	seen := map[dataset.UserID]bool{}
	for _, m := range g.Members {
		if seen[m] {
			t.Fatalf("duplicate member %d", m)
		}
		seen[m] = true
	}
	for i := 1; i < len(g.Members); i++ {
		if g.Members[i] <= g.Members[i-1] {
			t.Errorf("members not sorted: %v", g.Members)
		}
	}
}

func TestSimilarBeatsDissimilar(t *testing.T) {
	pred, model, pool := testWorld(t)
	f := NewFormer(pred, model, rand.New(rand.NewSource(4)))
	sim := f.Similar(pool, 6)
	diss := f.Dissimilar(pool, 6)
	if !slices.Contains(sim.Traits, Similar) || !slices.Contains(diss.Traits, Dissimilar) {
		t.Errorf("traits missing: %v %v", sim.Traits, diss.Traits)
	}
	simScore := f.MeanPairwiseSimilarity(sim.Members)
	dissScore := f.MeanPairwiseSimilarity(diss.Members)
	if simScore <= dissScore {
		t.Errorf("similar group similarity %.4f <= dissimilar %.4f", simScore, dissScore)
	}
}

func TestAffinityBands(t *testing.T) {
	pred, model, pool := testWorld(t)
	f := NewFormer(pred, model, rand.New(rand.NewSource(5)))
	low := f.LowAffinityGroup(pool, 6)
	if !slices.Contains(low.Traits, LowAffinity) {
		t.Errorf("low-affinity trait missing")
	}
	high, err := f.HighAffinityGroup(pool, SmallSize)
	if err == nil {
		if got := f.MinPairwiseAffinity(high.Members); got < HighAffinityThreshold {
			t.Errorf("high-affinity group min pairwise %.3f below %.1f", got, HighAffinityThreshold)
		}
	}
	// Low-affinity groups should have clearly weaker ties than the
	// high-affinity attempt.
	if err == nil {
		if f.MinPairwiseAffinity(low.Members) >= f.MinPairwiseAffinity(high.Members) {
			t.Errorf("low-affinity group is not weaker than high-affinity group")
		}
	}
}

func TestConstrainedGroupRespectsBandWhenFeasible(t *testing.T) {
	pred, model, pool := testWorld(t)
	f := NewFormer(pred, model, rand.New(rand.NewSource(6)))
	low := f.ConstrainedGroup(pool, 6, true, false)
	for i := range low.Members {
		for j := i + 1; j < len(low.Members); j++ {
			a := model.Discrete(low.Members[i], low.Members[j], model.Timeline.NumPeriods()-1)
			if a >= HighAffinityThreshold {
				t.Errorf("low-band group has pair affinity %.3f", a)
			}
		}
	}
}

func TestStudyGroupsCoverDesign(t *testing.T) {
	pred, model, pool := testWorld(t)
	f := NewFormer(pred, model, rand.New(rand.NewSource(7)))
	gs := f.StudyGroups(pool)
	if len(gs) != 8 {
		t.Fatalf("study groups = %d, want 8", len(gs))
	}
	counts := map[Characteristic]int{}
	for _, g := range gs {
		for _, tr := range g.Traits {
			counts[tr]++
		}
		wantSize := SmallSize
		if slices.Contains(g.Traits, Large) {
			wantSize = LargeSize
		}
		if len(g.Members) != wantSize {
			t.Errorf("group %v has %d members", g.Traits, len(g.Members))
		}
	}
	for _, c := range Characteristics() {
		if counts[c] != 4 {
			t.Errorf("%v appears in %d groups, want 4", c, counts[c])
		}
	}
}

func TestCharacteristicStrings(t *testing.T) {
	want := map[Characteristic]string{
		Similar: "Sim", Dissimilar: "Diss", Small: "Small",
		Large: "Large", HighAffinity: "High Aff", LowAffinity: "Low Aff",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), s)
		}
	}
}

func TestFormerPanicsOnBadSize(t *testing.T) {
	pred, model, pool := testWorld(t)
	f := NewFormer(pred, model, nil)
	for _, size := range []int{1, len(pool) + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d did not panic", size)
				}
			}()
			f.Random(pool, size)
		}()
	}
}

func TestFormerDeterministicPerSeed(t *testing.T) {
	pred, model, pool := testWorld(t)
	a := NewFormer(pred, model, rand.New(rand.NewSource(11))).Random(pool, 6)
	b := NewFormer(pred, model, rand.New(rand.NewSource(11))).Random(pool, 6)
	for i := range a.Members {
		if a.Members[i] != b.Members[i] {
			t.Fatalf("same seed, different groups: %v vs %v", a.Members, b.Members)
		}
	}
}
