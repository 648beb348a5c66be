package repro

import (
	"bytes"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/social"
)

// tinyConfig keeps world construction fast for unit tests.
func tinyConfig() Config {
	cfg := QuickConfig()
	cfg.Dataset.Users = 150
	cfg.Dataset.Items = 600
	cfg.Dataset.TargetRatings = 12_000
	return cfg
}

func tinyWorld(t *testing.T) *World {
	t.Helper()
	w, err := NewWorld(tinyConfig())
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	return w
}

func TestNewWorldWiring(t *testing.T) {
	w := tinyWorld(t)
	if w.Ratings() == nil || w.Network() == nil || w.pred == nil || w.AffinityModel() == nil {
		t.Fatalf("world has nil substrate")
	}
	if len(w.Participants()) != 72 {
		t.Errorf("participants = %d, want 72", len(w.Participants()))
	}
	if w.Timeline().NumPeriods() != 6 {
		t.Errorf("two-month timeline has %d periods, want 6", w.Timeline().NumPeriods())
	}
	if w.SynthRatings() == nil {
		t.Errorf("synthetic world should expose latent state")
	}
}

func TestNewWorldFromRatingsReader(t *testing.T) {
	// Generate, serialize, reload — the loaded world must work for
	// recommendations (but has no latent state).
	src := tinyWorld(t)
	var buf bytes.Buffer
	if err := dataset.WriteMovieLensRatings(&buf, src.Ratings()); err != nil {
		t.Fatal(err)
	}
	cfg := tinyConfig()
	cfg.RatingsReader = &buf
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld(loaded): %v", err)
	}
	if w.SynthRatings() != nil {
		t.Errorf("loaded world should have nil latent state")
	}
	rec, err := w.Recommend(w.Participants()[:3], Options{K: 3, NumItems: 100})
	if err != nil {
		t.Fatalf("Recommend on loaded world: %v", err)
	}
	if len(rec.Items) != 3 {
		t.Errorf("got %d items", len(rec.Items))
	}
}

func TestNewWorldRejectsOversizedSocial(t *testing.T) {
	cfg := tinyConfig()
	cfg.Social.Users = cfg.Dataset.Users + 1
	if _, err := NewWorld(cfg); err == nil {
		t.Errorf("social population larger than rating users accepted")
	}
}

func TestNewWorldRejectsNegativeListStoreSize(t *testing.T) {
	cfg := tinyConfig()
	cfg.ListStoreSize = -1
	if _, err := NewWorld(cfg); err == nil {
		t.Errorf("negative ListStoreSize accepted")
	}
}

// TestRecommendValidatesExplicitItems: an explicit candidate set names
// each item once and only catalog items; a valid one is recommended
// from, each item at most once.
func TestRecommendValidatesExplicitItems(t *testing.T) {
	w := tinyWorld(t)
	group := w.Participants()[2:4]
	c := w.CandidateItems(group, 6)
	tests := []struct {
		name    string
		items   []dataset.ItemID
		wantErr error
	}{
		{"duplicate item", []dataset.ItemID{c[0], c[0], c[0], c[1], c[2], c[3]}, ErrDuplicateItem},
		{"item outside the catalog", []dataset.ItemID{99999, c[0], c[1], c[2]}, dataset.ErrUnknownItem},
		{"valid set", c, nil},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := w.Recommend(group, Options{K: 3, Items: tc.items})
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("err = %v, want %v", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Recommend: %v", err)
			}
			seen := map[dataset.ItemID]bool{}
			for _, it := range rec.Items {
				if seen[it.Item] || !slices.Contains(tc.items, it.Item) {
					t.Errorf("recommended %d twice or from outside the set %v", it.Item, tc.items)
				}
				seen[it.Item] = true
			}
			if len(rec.Items) != 3 {
				t.Errorf("got %d items, want 3", len(rec.Items))
			}
		})
	}
}

func TestNewWorldRejectsBadRatings(t *testing.T) {
	cfg := tinyConfig()
	cfg.RatingsReader = strings.NewReader("not::a::valid::line::at::all\n")
	if _, err := NewWorld(cfg); err == nil {
		t.Errorf("malformed ratings accepted")
	}
}

func TestRecommendDefaults(t *testing.T) {
	w := tinyWorld(t)
	group := w.Participants()[:6]
	rec, err := w.Recommend(group, Options{NumItems: 400})
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	if len(rec.Items) != DefaultK {
		t.Errorf("default K yielded %d items", len(rec.Items))
	}
	if rec.Period != w.Timeline().NumPeriods()-1 {
		t.Errorf("default period = %d, want latest", rec.Period)
	}
	for _, it := range rec.Items {
		if it.UpperBound < it.Score {
			t.Errorf("item %d UB %v below score %v", it.Item, it.UpperBound, it.Score)
		}
	}
}

func TestRecommendExcludesRatedItems(t *testing.T) {
	w := tinyWorld(t)
	group := w.Participants()[:4]
	rec, err := w.Recommend(group, Options{K: 10, NumItems: 300})
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range rec.Items {
		for _, u := range group {
			if _, rated := w.Ratings().Value(u, it.Item); rated {
				t.Errorf("item %d already rated by member %d (problem definition excludes it)", it.Item, u)
			}
		}
	}
}

func TestRecommendValidation(t *testing.T) {
	w := tinyWorld(t)
	group := w.Participants()[:3]
	if _, err := w.Recommend(nil, Options{}); err == nil {
		t.Errorf("empty group accepted")
	}
	dup := []dataset.UserID{group[0], group[0], group[1]}
	if _, err := w.Recommend(dup, Options{}); err == nil {
		t.Errorf("duplicate members accepted")
	}
	if _, err := w.Recommend(group, Options{Period: 99}); err == nil {
		t.Errorf("out-of-range period accepted")
	}
	if _, err := w.Recommend(group, Options{K: 1000, NumItems: 50}); err == nil {
		t.Errorf("K above candidate count accepted")
	}
}

func TestRecommendModesAgreeOnItemScores(t *testing.T) {
	w := tinyWorld(t)
	group := w.Participants()[:4]
	opt := Options{K: 5, NumItems: 200}

	greca, err := w.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	opt.Mode = core.ModeFullScan
	full, err := w.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	// Full scan scores are exact; GRECA's k-th lower bound must not
	// exceed any exact top-k score, and every GRECA item's score
	// interval must admit a top-k placement.
	kth := full.Items[len(full.Items)-1].Score
	for _, it := range greca.Items {
		if it.UpperBound < kth-1e-9 {
			t.Errorf("GRECA returned item %d with UB %v below exact k-th %v", it.Item, it.UpperBound, kth)
		}
	}
	if full.Stats.PercentSA() != 100 {
		t.Errorf("full scan did not read everything: %v%%", full.Stats.PercentSA())
	}
	if greca.Stats.PercentSA() >= 100 {
		t.Errorf("GRECA saved nothing")
	}
}

func TestRecommendTimeModels(t *testing.T) {
	w := tinyWorld(t)
	group := w.Participants()[:4]
	for _, tm := range []TimeModel{Discrete, Continuous, TimeAgnostic, AffinityAgnostic} {
		rec, err := w.Recommend(group, Options{K: 5, NumItems: 200, TimeModel: tm})
		if err != nil {
			t.Fatalf("%v: %v", tm, err)
		}
		if len(rec.Items) != 5 {
			t.Errorf("%v: %d items", tm, len(rec.Items))
		}
	}
}

func TestRecommendConsensusFunctions(t *testing.T) {
	w := tinyWorld(t)
	group := w.Participants()[:4]
	for _, spec := range []consensus.Spec{consensus.AP(), consensus.MO(), consensus.PD(0.8), consensus.PD(0.2), consensus.VD(0.5)} {
		rec, err := w.Recommend(group, Options{K: 5, NumItems: 200, Consensus: spec})
		if err != nil {
			t.Fatalf("%v: %v", spec, err)
		}
		if len(rec.Items) != 5 {
			t.Errorf("%v: %d items", spec, len(rec.Items))
		}
	}
}

func TestRecommendSingleUser(t *testing.T) {
	w := tinyWorld(t)
	rec, err := w.Recommend(w.Participants()[:1], Options{K: 5, NumItems: 100})
	if err != nil {
		t.Fatalf("single user: %v", err)
	}
	if len(rec.Items) != 5 {
		t.Errorf("single user items = %d", len(rec.Items))
	}
}

func TestRecommendPeriodSweep(t *testing.T) {
	w := tinyWorld(t)
	group := w.Participants()[:3]
	for p := 1; p <= w.Timeline().NumPeriods(); p++ {
		rec, err := w.Recommend(group, Options{K: 3, NumItems: 100, Period: p})
		if err != nil {
			t.Fatalf("period %d: %v", p, err)
		}
		if rec.Period != p-1 {
			t.Errorf("period %d resolved to index %d", p, rec.Period)
		}
	}
}

func TestPairAffinityVariants(t *testing.T) {
	w := tinyWorld(t)
	ps := w.Participants()
	u, v := ps[0], ps[1]
	if got := w.PairAffinity(u, v, AffinityAgnostic, -1); got != 0 {
		t.Errorf("affinity-agnostic pair affinity = %v", got)
	}
	for _, tm := range []TimeModel{Discrete, Continuous, TimeAgnostic} {
		a := w.PairAffinity(u, v, tm, -1)
		if a < 0 || a > 1 {
			t.Errorf("%v affinity %v outside [0,1]", tm, a)
		}
		if a != w.PairAffinity(v, u, tm, -1) {
			t.Errorf("%v affinity not symmetric", tm)
		}
	}
	// A user paired with itself reads 0 under every time model, as a
	// pair with a user outside the population does.
	outsider := w.Ratings().Users()[len(w.Ratings().Users())-1]
	for _, tm := range []TimeModel{Discrete, Continuous, TimeAgnostic, AffinityAgnostic} {
		t.Run(tm.String(), func(t *testing.T) {
			if got := w.PairAffinity(u, u, tm, -1); got != 0 {
				t.Errorf("%v: PairAffinity(u, u) = %v, want 0", tm, got)
			}
			if got := w.PairAffinity(u, outsider, tm, -1); got != 0 {
				t.Errorf("%v: PairAffinity with a user outside the population = %v, want 0", tm, got)
			}
		})
	}
}

func TestCandidateItemsHonorsLimit(t *testing.T) {
	w := tinyWorld(t)
	group := w.Participants()[:3]
	items := w.CandidateItems(group, 50)
	if len(items) != 50 {
		t.Errorf("candidates = %d, want 50", len(items))
	}
}

func TestTimeModelStrings(t *testing.T) {
	want := map[TimeModel]string{
		Discrete: "discrete", Continuous: "continuous",
		TimeAgnostic: "time-agnostic", AffinityAgnostic: "affinity-agnostic",
	}
	for tm, s := range want {
		if tm.String() != s {
			t.Errorf("%d.String() = %q", int(tm), tm.String())
		}
	}
}

// TestIncrementalIndexMatchesBatch exercises the paper's index
// maintenance claim: building the affinity model over the first two
// periods and appending the remaining four one at a time must yield
// exactly the same temporal affinities as building over all six at
// once — previously computed entries are never touched.
func TestIncrementalIndexMatchesBatch(t *testing.T) {
	batchCfg := tinyConfig()
	batch, err := NewWorld(batchCfg)
	if err != nil {
		t.Fatal(err)
	}
	incCfg := tinyConfig()
	incCfg.InitialPeriods = 2
	inc, err := NewWorld(incCfg)
	if err != nil {
		t.Fatal(err)
	}
	if inc.Timeline().NumPeriods() != 2 || inc.PendingPeriods() != 4 {
		t.Fatalf("initial periods wrong: %d indexed, %d pending",
			inc.Timeline().NumPeriods(), inc.PendingPeriods())
	}
	for {
		more, err := inc.AppendNextPeriod()
		if err != nil {
			t.Fatalf("AppendNextPeriod: %v", err)
		}
		if !more {
			break
		}
	}
	if inc.Timeline().NumPeriods() != batch.Timeline().NumPeriods() {
		t.Fatalf("period counts differ: %d vs %d",
			inc.Timeline().NumPeriods(), batch.Timeline().NumPeriods())
	}
	ps := batch.Participants()
	last := batch.Timeline().NumPeriods() - 1
	for i := 0; i < 12; i++ {
		for j := i + 1; j < 12; j++ {
			a := batch.AffinityModel().Discrete(ps[i], ps[j], last)
			b := inc.AffinityModel().Discrete(ps[i], ps[j], last)
			if a != b {
				t.Fatalf("pair (%d,%d): batch %.9f vs incremental %.9f", ps[i], ps[j], a, b)
			}
		}
	}
	// And recommendations on the maintained index work.
	rec, err := inc.Recommend(ps[:3], Options{K: 3, NumItems: 100})
	if err != nil {
		t.Fatalf("Recommend after maintenance: %v", err)
	}
	if len(rec.Items) != 3 {
		t.Errorf("items = %d", len(rec.Items))
	}
}

// TestWorldFromLoadedSocialNetwork exports the generated world's
// ratings and social network and rebuilds a World entirely from the
// serialized artifacts: the affinity model must match the generated
// one exactly, and recommendations must work.
func TestWorldFromLoadedSocialNetwork(t *testing.T) {
	src := tinyWorld(t)
	var ratings, friendships, likes bytes.Buffer
	if err := dataset.WriteMovieLensRatings(&ratings, src.Ratings()); err != nil {
		t.Fatal(err)
	}
	if err := social.WriteFriendships(&friendships, src.SocialNetwork()); err != nil {
		t.Fatal(err)
	}
	if err := social.WritePageLikes(&likes, src.SocialNetwork()); err != nil {
		t.Fatal(err)
	}

	cfg := tinyConfig()
	cfg.RatingsReader = &ratings
	cfg.FriendshipsReader = &friendships
	cfg.PageLikesReader = &likes
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld(loaded social): %v", err)
	}
	if w.Network() != nil {
		t.Errorf("loaded network should have no latent structure")
	}
	ps := w.Participants()
	last := w.Timeline().NumPeriods() - 1
	for i := 0; i < 10; i++ {
		for j := i + 1; j < 10; j++ {
			a := src.AffinityModel().Discrete(ps[i], ps[j], last)
			b := w.AffinityModel().Discrete(ps[i], ps[j], last)
			if a != b {
				t.Fatalf("pair (%d,%d): affinity %v vs %v after round trip", ps[i], ps[j], a, b)
			}
		}
	}
	rec, err := w.Recommend(ps[:3], Options{K: 3, NumItems: 100})
	if err != nil {
		t.Fatalf("Recommend on loaded world: %v", err)
	}
	if len(rec.Items) != 3 {
		t.Errorf("items = %d", len(rec.Items))
	}
}

func TestWorldRejectsHalfConfiguredSocialReaders(t *testing.T) {
	cfg := tinyConfig()
	cfg.FriendshipsReader = strings.NewReader("user_a,user_b\n")
	if _, err := NewWorld(cfg); err == nil {
		t.Errorf("friendships without likes accepted")
	}
}
