package social

import (
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// has reports whether category c is present.
func has(cs CategorySet, c int) bool {
	return c >= 0 && c < 256 && cs[c>>6]&(1<<(uint(c)&63)) != 0
}

func TestCategorySet(t *testing.T) {
	var cs CategorySet
	if cs.Count() != 0 {
		t.Errorf("zero set should be empty")
	}
	cs.Add(0)
	cs.Add(63)
	cs.Add(64)
	cs.Add(196)
	if cs.Count() != 4 {
		t.Errorf("Count = %d, want 4", cs.Count())
	}
	for _, c := range []int{0, 63, 64, 196} {
		if !has(cs, c) {
			t.Errorf("missing category %d", c)
		}
	}
	if has(cs, 1) || has(cs, -1) || has(cs, 300) {
		t.Errorf("absent categories reported present")
	}
	var other CategorySet
	other.Add(63)
	other.Add(100)
	if got := cs.IntersectCount(other); got != 1 {
		t.Errorf("IntersectCount = %d, want 1", got)
	}
}

func TestCategorySetAddPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Add(-1) did not panic")
		}
	}()
	var cs CategorySet
	cs.Add(-1)
}

func TestNetworkFriendship(t *testing.T) {
	// The repeated edge, either way round, counts once.
	nw := NewNetwork(4, [][2]dataset.UserID{{0, 1}, {1, 2}, {0, 2}, {2, 1}}, nil)
	if !nw.AreFriends(0, 1) || !nw.AreFriends(1, 0) {
		t.Errorf("friendship not symmetric")
	}
	if nw.AreFriends(0, 3) {
		t.Errorf("phantom friendship")
	}
	if got := len(nw.Friends(1)); got != 2 {
		t.Errorf("len(Friends(1)) = %d, want 2", got)
	}
	// 0 and 1 share friend 2.
	if got := nw.CommonFriends(0, 1); got != 1 {
		t.Errorf("CommonFriends(0,1) = %d, want 1", got)
	}
	if got := nw.CommonFriends(0, 3); got != 0 {
		t.Errorf("CommonFriends(0,3) = %d, want 0", got)
	}
}

func TestNetworkSelfFriendshipPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("self-friendship did not panic")
		}
	}()
	NewNetwork(2, [][2]dataset.UserID{{0, 1}, {1, 1}}, nil)
}

func TestNetworkLikes(t *testing.T) {
	nw := NewNetwork(2, nil, []PageLike{
		{User: 0, Category: 5, Time: 100},
		{User: 0, Category: 7, Time: 50},
		{User: 1, Category: 5, Time: 60},
		{User: 1, Category: 9, Time: 200},
	})

	ls := nw.Likes(0)
	if len(ls) != 2 || ls[0].Time != 50 {
		t.Errorf("likes not time-sorted: %+v", ls)
	}
	if nw.NumLikes() != 4 {
		t.Errorf("NumLikes = %d", nw.NumLikes())
	}
	cs := nw.CategoriesIn(0, 0, 150)
	if !has(cs, 5) || !has(cs, 7) {
		t.Errorf("CategoriesIn missing categories: %v", cs)
	}
	// Window [90, 150): only user 0's like of category 5 at t=100.
	if got := nw.CategoriesIn(0, 90, 150).IntersectCount(nw.CategoriesIn(1, 90, 150)); got != 0 {
		t.Errorf("common in [90,150) = %d, want 0", got)
	}
	// Window [0, 150): both liked category 5.
	if got := nw.CategoriesIn(0, 0, 150).IntersectCount(nw.CategoriesIn(1, 0, 150)); got != 1 {
		t.Errorf("common in [0,150) = %d, want 1", got)
	}
	if !nw.HasLikesIn(1, 150, 250) || nw.HasLikesIn(0, 150, 250) {
		t.Errorf("HasLikesIn wrong")
	}
}

func TestSynthConfigValidate(t *testing.T) {
	good := DefaultSynthConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default invalid: %v", err)
	}
	mutations := []func(*SynthConfig){
		func(c *SynthConfig) { c.Users = 1 },
		func(c *SynthConfig) { c.Communities = 0 },
		func(c *SynthConfig) { c.Communities = c.Users + 1 },
		func(c *SynthConfig) { c.IntraFriendProb = -0.1 },
		func(c *SynthConfig) { c.InterFriendProb = 1.1 },
		func(c *SynthConfig) { c.End = c.Start },
		func(c *SynthConfig) { c.LikesPerUserMean = 0 },
		func(c *SynthConfig) { c.BurstsPerUser = 0 },
		func(c *SynthConfig) { c.BurstLength = 0 },
		func(c *SynthConfig) { c.InterestBreadth = 0 },
		func(c *SynthConfig) { c.InterestBreadth = NumFacebookCategories + 1 },
		func(c *SynthConfig) { c.DriftStrength = 1.5 },
	}
	for i, mutate := range mutations {
		cfg := DefaultSynthConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

func TestGenerateNetworkStructure(t *testing.T) {
	sn, err := GenerateNetwork(DefaultSynthConfig())
	if err != nil {
		t.Fatalf("GenerateNetwork: %v", err)
	}
	cfg := sn.Config
	if sn.Network.NumUsers() != cfg.Users {
		t.Fatalf("users = %d", sn.Network.NumUsers())
	}
	if sn.Network.NumLikes() == 0 {
		t.Fatalf("no likes generated")
	}
	// Likes are inside the window.
	for u := 0; u < cfg.Users; u++ {
		for _, l := range sn.Network.Likes(dataset.UserID(u)) {
			if l.Time < cfg.Start || l.Time >= cfg.End {
				t.Fatalf("like outside window: %+v", l)
			}
		}
	}
	// Community structure: average intra-community friendship rate
	// must clearly exceed the cross-community rate.
	intraEdges, intraPairs, interEdges, interPairs := 0, 0, 0, 0
	for u := 0; u < cfg.Users; u++ {
		for v := u + 1; v < cfg.Users; v++ {
			same := sn.Community[u] == sn.Community[v]
			friends := sn.Network.AreFriends(dataset.UserID(u), dataset.UserID(v))
			if same {
				intraPairs++
				if friends {
					intraEdges++
				}
			} else {
				interPairs++
				if friends {
					interEdges++
				}
			}
		}
	}
	intraRate := float64(intraEdges) / float64(intraPairs)
	interRate := float64(interEdges) / float64(interPairs)
	if intraRate < 3*interRate {
		t.Errorf("weak community structure: intra %.3f vs inter %.3f", intraRate, interRate)
	}
}

func TestTrueAffinityProperties(t *testing.T) {
	sn, err := GenerateNetwork(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := sn.Config.End - 1
	f := func(a, b uint8) bool {
		u := dataset.UserID(int(a) % sn.Config.Users)
		v := dataset.UserID(int(b) % sn.Config.Users)
		if u == v {
			return true
		}
		x := sn.TrueAffinity(u, v, now)
		y := sn.TrueAffinity(v, u, now)
		return x == y && x >= 0 && x <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestInterestProfileIsDistribution(t *testing.T) {
	sn, err := GenerateNetwork(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range []int64{sn.Config.Start, (sn.Config.Start + sn.Config.End) / 2, sn.Config.End} {
		p := sn.InterestProfile(3, ts)
		var sum float64
		for _, v := range p {
			if v < 0 {
				t.Fatalf("negative probability %v at t=%d", v, ts)
			}
			sum += v
		}
		if sum < 0.99 || sum > 1.01 {
			t.Errorf("profile at t=%d sums to %v", ts, sum)
		}
	}
}

func TestGenerateNetworkDeterministic(t *testing.T) {
	a, err := GenerateNetwork(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateNetwork(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	if a.Network.NumLikes() != b.Network.NumLikes() {
		t.Errorf("same seed, different like counts")
	}
	for u := 0; u < a.Config.Users; u++ {
		if a.Sociability[u] != b.Sociability[u] {
			t.Fatalf("sociability differs at %d", u)
		}
	}
}

func TestDriftChangesAffinityOverTime(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.DriftStrength = 1.0
	sn, err := GenerateNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	changed := 0
	total := 0
	for u := 0; u < 24; u++ {
		for v := u + 1; v < 24; v++ {
			start := sn.TrueAffinity(dataset.UserID(u), dataset.UserID(v), cfg.Start+1)
			end := sn.TrueAffinity(dataset.UserID(u), dataset.UserID(v), cfg.End-1)
			total++
			if diff := end - start; diff > 0.02 || diff < -0.02 {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Errorf("no pair's affinity moved over the window (%d pairs)", total)
	}
}
