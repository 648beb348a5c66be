package repro

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/consensus"
	"repro/internal/dataset"
)

// liveTestConfig is a small world so the -race matrix stays fast.
func liveTestConfig() Config {
	cfg := QuickConfig()
	cfg.Dataset.Users = 150
	cfg.Dataset.TargetRatings = 10_000
	cfg.Dataset.Items = 500
	return cfg
}

// liveBaseRatings renders a deterministic base dataset in the
// MovieLens text format by generating the liveTestConfig synthetic
// store once and dumping it — both the live and the cold world in the
// differential tests load from this same text.
func liveBaseRatings(t *testing.T) string {
	t.Helper()
	w, err := NewWorld(liveTestConfig())
	if err != nil {
		t.Fatalf("building seed world: %v", err)
	}
	var buf bytes.Buffer
	if err := dataset.WriteMovieLensRatings(&buf, w.Ratings()); err != nil {
		t.Fatalf("dumping ratings: %v", err)
	}
	return buf.String()
}

// liveWorld builds a world over the given ratings text at the given
// shard count, with everything else at the liveTestConfig defaults.
func liveWorld(t *testing.T, ratings string, shards int, spec consensus.Spec) *World {
	t.Helper()
	cfg := liveTestConfig()
	cfg.RatingsReader = strings.NewReader(ratings)
	cfg.Shards = shards
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("building world (shards=%d): %v", shards, err)
	}
	_ = spec
	return w
}

// liveExtraRatings picks deterministic new ratings for the first few
// participants: for each, the most popular item the member has not yet
// rated (so the ingest changes both predictions and the candidate
// exclusion), stamped inside the observation window.
func liveExtraRatings(w *World, n int) []dataset.Rating {
	var out []dataset.Rating
	for _, u := range w.Participants() {
		if len(out) == n {
			break
		}
		for _, it := range w.Ratings().UnratedPopular([]dataset.UserID{u}, 1) {
			out = append(out, dataset.Rating{User: u, Item: it, Value: 5, Time: 978300000 + int64(len(out))})
		}
	}
	return out
}

// appendRatingsText appends extra ratings to a MovieLens-format dump,
// preserving the delta semantics: deltas come after every base record.
func appendRatingsText(base string, extra []dataset.Rating) string {
	var b strings.Builder
	b.WriteString(base)
	for _, r := range extra {
		fmt.Fprintf(&b, "%d::%d::%g::%d\n", r.User, r.Item, r.Value, r.Time)
	}
	return b.String()
}

// TestAddRatingMatchesColdRebuild is the tentpole differential: after
// AddRating, a live world — whose caches were deliberately warmed with
// pre-ingest state — must produce recommendations bit-identical to a
// cold world rebuilt from the extended dataset, at every shard count
// and consensus function.
func TestAddRatingMatchesColdRebuild(t *testing.T) {
	base := liveBaseRatings(t)
	specs := map[string]consensus.Spec{"AP": consensus.AP(), "MO": consensus.MO(), "PD": consensus.PD(0.6)}
	for _, shards := range []int{1, 4, 16} {
		live := liveWorld(t, base, shards, consensus.AP())
		extra := liveExtraRatings(live, 4)
		if len(extra) != 4 {
			t.Fatalf("shards=%d: found %d extra ratings, want 4", shards, len(extra))
		}
		group := live.Participants()[:3]
		opt := Options{K: 5}

		// Warm every cache with pre-ingest state: the differential then
		// proves the invalidation is coherent, not merely that cold
		// caches recompute correctly.
		if _, err := live.Recommend(group, opt); err != nil {
			t.Fatalf("shards=%d: warming recommend: %v", shards, err)
		}
		for _, r := range extra {
			if err := live.AddRating(r); err != nil {
				t.Fatalf("shards=%d: AddRating(%+v): %v", shards, r, err)
			}
		}
		if st := live.IngestStats(); st.Applied != 4 {
			t.Fatalf("shards=%d: ingest stats %+v, want 4 applied", shards, st)
		}

		cold := liveWorld(t, appendRatingsText(base, extra), shards, consensus.AP())
		for name, spec := range specs {
			o := opt
			o.Consensus = spec
			want, err := cold.Recommend(group, o)
			if err != nil {
				t.Fatalf("shards=%d %s: cold recommend: %v", shards, name, err)
			}
			got, err := live.Recommend(group, o)
			if err != nil {
				t.Fatalf("shards=%d %s: live recommend: %v", shards, name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d %s: live recommendation diverged from cold rebuild\n got %+v\nwant %+v", shards, name, got, want)
			}
		}
	}
}

// TestAddRatingRejections pins the typed-error surface and that a
// rejected rating leaves the world untouched.
func TestAddRatingRejections(t *testing.T) {
	w, err := NewWorld(liveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	u := w.Participants()[0]
	it := w.Ratings().Items()[0]
	cases := []struct {
		r    dataset.Rating
		want error
	}{
		{dataset.Rating{User: 1 << 30, Item: it, Value: 4}, dataset.ErrUnknownUser},
		{dataset.Rating{User: u, Item: 1 << 30, Value: 4}, dataset.ErrUnknownItem},
		{dataset.Rating{User: u, Item: it, Value: 9}, dataset.ErrBadValue},
		{dataset.Rating{User: u, Item: it, Value: math.NaN()}, dataset.ErrBadValue},
	}
	for _, c := range cases {
		err := w.AddRating(c.r)
		if err == nil {
			t.Fatalf("AddRating(%+v) succeeded, want %v", c.r, c.want)
		}
		if !errors.Is(err, c.want) {
			t.Errorf("AddRating(%+v) = %v, want errors.Is %v", c.r, err, c.want)
		}
	}
	if st := w.IngestStats(); st.Applied != 0 {
		t.Errorf("rejected ratings left ingest stats %+v", st)
	}
}

// TestAppendNextPeriodWhileServing hammers the index-maintenance write
// path from one goroutine while others serve recommendations and read
// the timeline — the -race regression for the unsynchronized
// pending/timeline mutation.
func TestAppendNextPeriodWhileServing(t *testing.T) {
	cfg := liveTestConfig()
	cfg.InitialPeriods = 2
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if w.PendingPeriods() == 0 {
		t.Fatal("no pending periods — test misconfigured")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			group := w.Participants()[i : i+3]
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := w.Recommend(group, Options{K: 3, TimeModel: Continuous}); err != nil {
					t.Errorf("serving during append: %v", err)
					return
				}
				_ = w.PairAffinity(group[0], group[1], Discrete, -1)
				_ = w.Timeline().NumPeriods()
				_ = w.PendingPeriods()
			}
		}(i)
	}
	for {
		more, err := w.AppendNextPeriod()
		if err != nil {
			t.Errorf("AppendNextPeriod: %v", err)
			break
		}
		if !more {
			break
		}
	}
	close(stop)
	wg.Wait()
	if n := w.PendingPeriods(); n != 0 {
		t.Errorf("%d periods still pending after draining", n)
	}
}

// TestItemsMutationAfterSubmitIsSafe pins the defensive copy: a caller
// that scrambles its candidate slice the moment its call returns must
// not corrupt a concurrent content-equal call (-race catches an
// unsynchronized write; the result comparison catches silent
// corruption).
func TestItemsMutationAfterSubmitIsSafe(t *testing.T) {
	w, err := NewWorld(liveTestConfig())
	if err != nil {
		t.Fatal(err)
	}
	group := w.Participants()[:3]
	items := w.CandidateItems(group, 120)
	ref, err := w.Recommend(group, Options{K: 5, Items: items})
	if err != nil {
		t.Fatal(err)
	}
	for iter := 0; iter < 25; iter++ {
		a := append([]dataset.ItemID(nil), items...)
		b := append([]dataset.ItemID(nil), items...)
		var wg sync.WaitGroup
		var got *Recommendation
		var gotErr error
		wg.Add(2)
		go func() {
			defer wg.Done()
			if _, err := w.Recommend(group, Options{K: 5, Items: a}); err != nil {
				t.Errorf("mutating caller: %v", err)
				return
			}
			for i := range a {
				a[i] = 1 // post-return scramble; b's run may still be in flight
			}
		}()
		go func() {
			defer wg.Done()
			got, gotErr = w.Recommend(group, Options{K: 5, Items: b})
		}()
		wg.Wait()
		if gotErr != nil {
			t.Fatal(gotErr)
		}
		if !reflect.DeepEqual(got.Items, ref.Items) {
			t.Fatalf("iter %d: concurrent caller's result diverged after peer mutated its slice", iter)
		}
	}
}

// liveWorldCfg is liveWorld without a consensus spec.
func liveWorldCfg(t *testing.T, ratings string, shards int) *World {
	t.Helper()
	return liveWorldBuilt(t, ratings, shards, NewWorld)
}

// liveWorldBuilt is liveWorldCfg over an explicit constructor — NewWorld,
// or the test-only NewFullInvalidationWorld.
func liveWorldBuilt(t *testing.T, ratings string, shards int, build func(Config) (*World, error)) *World {
	t.Helper()
	cfg := liveTestConfig()
	cfg.RatingsReader = strings.NewReader(ratings)
	cfg.Shards = shards
	w, err := build(cfg)
	if err != nil {
		t.Fatalf("building world (shards=%d): %v", shards, err)
	}
	return w
}

// TestScopedIngestKeepsCachesWarm pins the point of the scoped scheme
// at the world level: after a warmed world ingests a rating, the cache
// counters must show retained neighborhoods — under the drop-everything
// reference scheme the same traffic retains none — while every sorted
// view drops and the warmed groups are served bytes identical to a cold
// rebuild's.
func TestScopedIngestKeepsCachesWarm(t *testing.T) {
	base := liveBaseRatings(t)
	const warmUsers = 30
	run := func(build func(Config) (*World, error)) (*World, dataset.Rating) {
		w := liveWorldBuilt(t, base, 4, build)
		// Warm broadly: views and neighborhoods through recommend traffic
		// over disjoint groups.
		users := w.Ratings().Users()
		for g := 0; g+3 <= warmUsers; g += 3 {
			if _, err := w.Recommend(users[g:g+3], Options{K: 5}); err != nil {
				t.Fatal(err)
			}
		}
		// One rating by one user on its least-popular unrated item — the
		// smallest reach an ingest can have; most of the 30 warm users'
		// neighborhoods must survive it.
		rater := users[0]
		unrated := w.Ratings().UnratedPopular([]dataset.UserID{rater}, 0)
		r := dataset.Rating{User: rater, Item: unrated[len(unrated)-1], Value: 5, Time: 978300000}
		if err := w.AddRating(r); err != nil {
			t.Fatal(err)
		}
		return w, r
	}

	live, r := run(NewWorld)
	scoped := live.CacheStats()
	if scoped.Neighborhoods.Retained == 0 {
		t.Errorf("scoped ingest retained no neighborhoods: %+v", scoped.Neighborhoods)
	}
	if scoped.Neighborhoods.Invalidated == 0 {
		t.Errorf("scoped ingest invalidated no neighborhoods — the rater's own must always drop")
	}
	if scoped.ListStore.Invalidations != warmUsers || scoped.ListStore.Size != 0 {
		t.Errorf("ingest left sorted views standing: %+v, want all %d dropped", scoped.ListStore, warmUsers)
	}
	// Views rebuilt over the retained neighborhoods serve a cold
	// rebuild's bytes.
	cold := liveWorldCfg(t, appendRatingsText(base, []dataset.Rating{r}), 4)
	users := live.Ratings().Users()
	for g := 0; g+3 <= warmUsers; g += 3 {
		want, err := cold.Recommend(users[g:g+3], Options{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		got, err := live.Recommend(users[g:g+3], Options{K: 5})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("group %v: post-ingest recommendation diverged from cold rebuild\n got %+v\nwant %+v", users[g:g+3], got, want)
		}
	}

	fullWorld, _ := run(NewFullInvalidationWorld)
	full := fullWorld.CacheStats()
	if full.Neighborhoods.Retained != 0 {
		t.Errorf("full invalidation retained %d neighborhoods", full.Neighborhoods.Retained)
	}
	if full.Neighborhoods.Invalidated == 0 {
		t.Errorf("full-invalidation ingest recorded no invalidations")
	}
}

// TestFullInvalidationMatchesScoped is the scheme differential: the
// drop-everything reference world and the scoped world must serve
// byte-identical recommendations after the same ingest stream — the
// scheme may only change cache heat, never a result.
func TestFullInvalidationMatchesScoped(t *testing.T) {
	base := liveBaseRatings(t)
	specs := map[string]consensus.Spec{"AP": consensus.AP(), "MO": consensus.MO(), "PD": consensus.PD(0.6)}
	scoped := liveWorldCfg(t, base, 4)
	full := liveWorldBuilt(t, base, 4, NewFullInvalidationWorld)
	group := scoped.Participants()[:3]
	for _, w := range []*World{scoped, full} {
		if _, err := w.Recommend(group, Options{K: 5}); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range liveExtraRatings(scoped, 4) {
		if err := scoped.AddRating(r); err != nil {
			t.Fatal(err)
		}
		if err := full.AddRating(r); err != nil {
			t.Fatal(err)
		}
	}
	for name, spec := range specs {
		o := Options{K: 5, Consensus: spec}
		want, err := full.Recommend(group, o)
		if err != nil {
			t.Fatalf("%s: full recommend: %v", name, err)
		}
		got, err := scoped.Recommend(group, o)
		if err != nil {
			t.Fatalf("%s: scoped recommend: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scoped result diverged from full invalidation\n got %+v\nwant %+v", name, got, want)
		}
	}
}
