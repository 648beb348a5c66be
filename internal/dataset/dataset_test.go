package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, s *Store, r Rating) {
	t.Helper()
	if err := s.Add(r); err != nil {
		t.Fatalf("Add(%+v): %v", r, err)
	}
}

func smallStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	mustAdd(t, s, Rating{User: 1, Item: 10, Value: 5, Time: 100})
	mustAdd(t, s, Rating{User: 1, Item: 20, Value: 3, Time: 101})
	mustAdd(t, s, Rating{User: 2, Item: 10, Value: 4, Time: 102})
	mustAdd(t, s, Rating{User: 2, Item: 30, Value: 1, Time: 103})
	mustAdd(t, s, Rating{User: 3, Item: 10, Value: 2, Time: 104})
	s.Freeze()
	return s
}

func TestStoreBasics(t *testing.T) {
	s := smallStore(t)
	if got := s.NumRatings(); got != 5 {
		t.Errorf("NumRatings = %d, want 5", got)
	}
	if got := len(s.Users()); got != 3 {
		t.Errorf("Users = %d, want 3", got)
	}
	if got := len(s.Items()); got != 3 {
		t.Errorf("Items = %d, want 3", got)
	}
	if v, ok := s.Value(1, 20); !ok || v != 3 {
		t.Errorf("Value(1,20) = %v,%v", v, ok)
	}
	if _, ok := s.Value(1, 30); ok {
		t.Errorf("Value(1,30) should not exist")
	}
	if got := s.UnratedPopular([]UserID{3}, 0); !slices.Equal(got, []ItemID{20, 30}) {
		t.Errorf("UnratedPopular({3}) = %v, want [20 30]", got)
	}
	st := s.Stats()
	if st.Users != 3 || st.Items != 3 || st.Ratings != 5 {
		t.Errorf("Stats = %+v", st)
	}
	if st.MeanRating != 3 {
		t.Errorf("MeanRating = %v, want 3", st.MeanRating)
	}
}

func TestStoreRejectsBadRating(t *testing.T) {
	s := NewStore()
	if err := s.Add(Rating{User: 1, Item: 1, Value: 0}); err == nil {
		t.Errorf("Add accepted rating 0")
	}
	if err := s.Add(Rating{User: 1, Item: 1, Value: 5.5}); err == nil {
		t.Errorf("Add accepted rating 5.5")
	}
	if err := s.Add(Rating{User: 1, Item: 1, Value: math.NaN()}); !errors.Is(err, ErrBadValue) {
		t.Errorf("Add(NaN) = %v, want ErrBadValue", err)
	}
	if s.NumRatings() != 0 {
		t.Errorf("rejected ratings were stored: %d", s.NumRatings())
	}
	if _, err := LoadMovieLensRatings(strings.NewReader("1::1::4::100\n1::2::NaN::101\n")); !errors.Is(err, ErrBadValue) {
		t.Errorf("loading a NaN rating = %v, want ErrBadValue", err)
	}
}

func TestStoreFrozenPanics(t *testing.T) {
	s := smallStore(t)
	defer func() {
		if recover() == nil {
			t.Errorf("Add on frozen store did not panic")
		}
	}()
	_ = s.Add(Rating{User: 9, Item: 9, Value: 3})
}

func TestStoreUnfrozenQueryPanics(t *testing.T) {
	s := NewStore()
	defer func() {
		if recover() == nil {
			t.Errorf("Users() on unfrozen store did not panic")
		}
	}()
	s.Users()
}

func TestItemPopularityAndSets(t *testing.T) {
	s := smallStore(t)
	pop := s.ItemPopularity()
	if pop[0] != 10 {
		t.Errorf("most popular = %d, want 10", pop[0])
	}
	top2 := s.PopularSet(2)
	if len(top2) != 2 || top2[0] != 10 {
		t.Errorf("PopularSet = %v", top2)
	}
	if got := s.PopularSet(99); len(got) != 3 {
		t.Errorf("oversized PopularSet = %v", got)
	}
	// Item 10 has ratings {5,4,2}: variance > 0; items 20, 30 single
	// ratings: variance 0.
	if v := s.ItemRatingVariance(10); v <= 0 {
		t.Errorf("variance(10) = %v", v)
	}
	div := s.DiversitySet(1, 3)
	if len(div) != 1 || div[0] != 10 {
		t.Errorf("DiversitySet = %v", div)
	}
}

func TestMovieLensRoundTrip(t *testing.T) {
	s := smallStore(t)
	var buf bytes.Buffer
	if err := WriteMovieLensRatings(&buf, s); err != nil {
		t.Fatalf("write: %v", err)
	}
	loaded, err := LoadMovieLensRatings(&buf)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if loaded.NumRatings() != s.NumRatings() {
		t.Fatalf("round trip lost ratings: %d vs %d", loaded.NumRatings(), s.NumRatings())
	}
	for _, u := range s.Users() {
		for _, r := range s.ByUser(u) {
			v, ok := loaded.Value(u, r.Item)
			if !ok || v != r.Value {
				t.Errorf("round trip mismatch for (%d,%d): %v,%v", u, r.Item, v, ok)
			}
		}
	}
}

func TestLoadMovieLensRejectsMalformed(t *testing.T) {
	cases := []string{
		"1::2::3",           // too few fields
		"a::2::3::4",        // bad user
		"1::b::3::4",        // bad item
		"1::2::x::4",        // bad rating
		"1::2::3::y",        // bad timestamp
		"1::2::9::4",        // out-of-range rating
		"1::2::3::4::extra", // too many fields
	}
	for _, line := range cases {
		if _, err := LoadMovieLensRatings(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("loader accepted %q", line)
		}
	}
	// Blank lines are fine.
	if _, err := LoadMovieLensRatings(strings.NewReader("\n1::2::3::4\n\n")); err != nil {
		t.Errorf("loader rejected blank lines: %v", err)
	}
}

func TestSynthConfigValidate(t *testing.T) {
	good := DefaultSynthConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	mutations := []func(*SynthConfig){
		func(c *SynthConfig) { c.Users = 0 },
		func(c *SynthConfig) { c.Items = 0 },
		func(c *SynthConfig) { c.TargetRatings = 0 },
		func(c *SynthConfig) { c.TargetRatings = c.Users*c.Items + 1 },
		func(c *SynthConfig) { c.Genres = 0 },
		func(c *SynthConfig) { c.Clusters = 0 },
		func(c *SynthConfig) { c.PopularitySkew = 0 },
		func(c *SynthConfig) { c.RatingNoise = -1 },
		func(c *SynthConfig) { c.ParticipantUsers = -1 },
		func(c *SynthConfig) { c.ParticipantUsers = c.Users + 1 },
		func(c *SynthConfig) { c.ParticipantUsers = 1; c.ParticipantMinRatings = 0 },
		func(c *SynthConfig) { c.ParticipantUsers = 1; c.ParticipantMinRatings = 5; c.ParticipantMaxRatings = 4 },
		func(c *SynthConfig) {
			c.ParticipantUsers = 1
			c.ParticipantMinRatings = 1
			c.ParticipantMaxRatings = c.Items + 1
		},
		func(c *SynthConfig) {
			c.ParticipantUsers = 1
			c.ParticipantMinRatings = 1
			c.ParticipantMaxRatings = 10
			c.ParticipantPoolSize = 5
		},
	}
	for i, mutate := range mutations {
		cfg := DefaultSynthConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, cfg)
		}
	}
}

func TestGenerateMarginals(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Users = 200
	cfg.Items = 500
	cfg.TargetRatings = 8000
	sy, err := Generate(cfg)
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	st := sy.Store.Stats()
	if st.Users != 200 {
		t.Errorf("users = %d, want 200", st.Users)
	}
	if st.Items > 500 {
		t.Errorf("items = %d beyond catalog", st.Items)
	}
	// The count adjuster targets the exact rating count.
	if st.Ratings != 8000 {
		t.Errorf("ratings = %d, want 8000", st.Ratings)
	}
	if st.MeanRating < 2 || st.MeanRating > 4.5 {
		t.Errorf("mean rating %v implausible", st.MeanRating)
	}
	// Ratings must be integers 1..5.
	for _, u := range sy.Store.Users() {
		for _, r := range sy.Store.ByUser(u) {
			if r.Value != float64(int(r.Value)) || r.Value < 1 || r.Value > 5 {
				t.Fatalf("non-integer or out-of-range rating %v", r.Value)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Users = 50
	cfg.Items = 100
	cfg.TargetRatings = 1000
	a, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var bufA, bufB bytes.Buffer
	if err := WriteMovieLensRatings(&bufA, a.Store); err != nil {
		t.Fatal(err)
	}
	if err := WriteMovieLensRatings(&bufB, b.Store); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Errorf("same seed produced different datasets")
	}
}

func TestGenerateParticipants(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Users = 100
	cfg.Items = 400
	cfg.TargetRatings = 8000
	cfg.ParticipantUsers = 20
	cfg.ParticipantMinRatings = 10
	cfg.ParticipantMaxRatings = 20
	cfg.ParticipantPoolSize = 40
	cfg.ParticipantExtraMean = 30
	sy, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Every participant rated at least MinRatings items within the
	// pool (the pool is the top-PoolSize popularity ranks, which we
	// recover as the most-rated items).
	pool := map[ItemID]bool{}
	for _, it := range sy.Store.PopularSet(cfg.ParticipantPoolSize) {
		pool[it] = true
	}
	for u := 0; u < cfg.ParticipantUsers; u++ {
		inPool := 0
		for _, r := range sy.Store.ByUser(UserID(u)) {
			if pool[r.Item] {
				inPool++
			}
		}
		if inPool < cfg.ParticipantMinRatings/2 {
			t.Errorf("participant %d has only %d pool ratings", u, inPool)
		}
		if total := len(sy.Store.ByUser(UserID(u))); total < cfg.ParticipantMinRatings {
			t.Errorf("participant %d has %d ratings total", u, total)
		}
	}
}

func TestLatentScoreBounds(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Users = 30
	cfg.Items = 60
	cfg.TargetRatings = 500
	sy, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := func(u, it uint8) bool {
		s := sy.LatentScore(UserID(int(u)%cfg.Users), ItemID(int(it)%cfg.Items))
		return s >= 1 && s <= 5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAdjustCounts(t *testing.T) {
	counts := []int{5, 5, 5}
	adjustCounts(counts, 4, 10)
	if counts[0]+counts[1]+counts[2] != 19 {
		t.Errorf("positive adjust: %v", counts)
	}
	adjustCounts(counts, -4, 10)
	if counts[0]+counts[1]+counts[2] != 15 {
		t.Errorf("negative adjust: %v", counts)
	}
	// Saturating at bounds must not loop forever.
	capped := []int{10, 10}
	adjustCounts(capped, 5, 10)
	if capped[0] != 10 || capped[1] != 10 {
		t.Errorf("saturated adjust changed counts: %v", capped)
	}
}

// unratedByLookups is UnratedPopular's reference: PopularityRanked
// filtered by one Value lookup per member, cut to n (every item when
// n <= 0).
func unratedByLookups(s *Store, group []UserID, n int) []ItemID {
	out := []ItemID{}
	for _, it := range s.PopularityRanked() {
		rated := false
		for _, u := range group {
			if _, ok := s.Value(u, it); ok {
				rated = true
			}
		}
		if !rated {
			out = append(out, it)
		}
	}
	if n > 0 && n < len(out) {
		out = out[:n]
	}
	return out
}

// checkUnratedPopular holds UnratedPopular to the lookup filter for
// every group of up to two users among users and every cut.
func checkUnratedPopular(t *testing.T, tag string, s *Store, users []UserID) {
	t.Helper()
	groups := [][]UserID{nil}
	for i, u := range users {
		groups = append(groups, []UserID{u})
		for _, v := range users[i+1:] {
			groups = append(groups, []UserID{u, v})
		}
	}
	for _, g := range groups {
		for _, n := range []int{-1, 0, 1, 2, len(s.Items()), len(s.Items()) + 1} {
			if got, want := s.UnratedPopular(g, n), unratedByLookups(s, g, n); !slices.Equal(got, want) {
				t.Fatalf("%s: UnratedPopular(%v, %d) = %v, the lookup filter gives %v", tag, g, n, got, want)
			}
		}
	}
}

func TestUnratedPopularMatchesValueLookups(t *testing.T) {
	s := NewStore()
	ratings := []Rating{
		{User: 0, Item: 0, Value: 5},
		{User: 0, Item: 63, Value: 4}, // word boundary
		{User: 0, Item: 64, Value: 3},
		{User: 1, Item: 2, Value: 2},
		{User: 2, Item: 200, Value: 1},
		{User: 2, Item: 200, Value: 4}, // a repeated pair
		{User: 3, Item: 64, Value: 2},
	}
	for _, r := range ratings {
		if err := s.Add(r); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	s.Freeze()
	// 99 is absent from the store and rates nothing.
	checkUnratedPopular(t, "frozen", s, []UserID{0, 1, 2, 3, 99})
	if got := s.UnratedPopular([]UserID{0, 2}, 0); !slices.Equal(got, []ItemID{2}) {
		t.Errorf("UnratedPopular({0,2}) = %v, want [2]", got)
	}
}

// TestUnratedPopularOnAdversarialIDs covers item domains no offset table
// fits: negative IDs and IDs spread past 2^40, which the item index keeps
// in a map. The exclusion works over positions, so it is the same walk.
func TestUnratedPopularOnAdversarialIDs(t *testing.T) {
	for _, items := range [][]ItemID{{-5, -1, 3}, {0, 1 << 40, 1<<62 + 9}} {
		s := NewStore()
		for u, it := range items {
			for v := 0; v <= u; v++ {
				mustAdd(t, s, Rating{User: UserID(v), Item: it, Value: 3})
			}
		}
		s.Freeze()
		checkUnratedPopular(t, fmt.Sprint(items), s, []UserID{0, 1, 2})
		if got, want := s.UnratedPopular([]UserID{2}, 0), []ItemID{items[1], items[0]}; !slices.Equal(got, want) {
			t.Errorf("items %v: UnratedPopular({2}) = %v, want %v", items, got, want)
		}
	}
}

func TestPopularityRankedSharedAndStable(t *testing.T) {
	s := NewStore()
	for i, n := range []int{1, 3, 2} { // item 1 most popular, then 2, then 0
		for u := 0; u < n; u++ {
			if err := s.Add(Rating{User: UserID(u), Item: ItemID(i), Value: 4}); err != nil {
				t.Fatalf("Add: %v", err)
			}
		}
	}
	s.Freeze()
	want := []ItemID{1, 2, 0}
	shared := s.PopularityRanked()
	copied := s.ItemPopularity()
	for i := range want {
		if shared[i] != want[i] || copied[i] != want[i] {
			t.Fatalf("popularity = %v / %v, want %v", shared, copied, want)
		}
	}
	copied[0] = 99 // mutating the copy must not corrupt the shared ranking
	if s.PopularityRanked()[0] != 1 {
		t.Errorf("ItemPopularity copy aliased the shared ranking")
	}
}
