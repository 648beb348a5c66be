package repro

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/affinity"
	"repro/internal/dataset"
	"repro/internal/liststore"
	"repro/internal/social"
)

// benchWorldConfig is the bench workloads' world (bench/workloads.go,
// benchScale): 2 000 users × 1 500 items × 150 000 ratings, 600
// participants in 50 communities, four shards.
func benchWorldConfig() Config {
	ds := dataset.DefaultSynthConfig()
	ds.Users, ds.Items, ds.TargetRatings = 2000, 1500, 150_000
	soc := social.DefaultSynthConfig()
	soc.Users, soc.Communities = 600, 50
	return Config{Dataset: ds, Social: soc, Granularity: affinity.TwoMonth, Shards: 4}
}

// TestShardBackendRetainsUserPlaneOnly: a backend keeps its world's user
// plane and nothing else, so dropping the world frees the global plane —
// the social network, the synthetic latents and the affinity model, over
// 3 MB on the bench world — while the backend still serves.
func TestShardBackendRetainsUserPlaneOnly(t *testing.T) {
	w, err := NewWorld(benchWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShardBackend(w, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	u := w.Participants()[0]
	var held, dropped runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&held)
	runtime.KeepAlive(w)
	w = nil
	runtime.GC()
	runtime.ReadMemStats(&dropped)
	freed := int64(held.HeapAlloc) - int64(dropped.HeapAlloc)
	t.Logf("held %.2f MB, freed %.2f MB", float64(held.HeapAlloc)/(1<<20), float64(freed)/(1<<20))
	if freed < 3<<20 {
		t.Errorf("dropping the world freed %d bytes, want at least 3 MB: the backend holds more than the user plane", freed)
	}
	if sc, err := b.ViewScores(u); err != nil || len(sc) != len(b.p.pool) {
		t.Errorf("backend without its world: ViewScores(%d) = %d scores, %v", u, len(sc), err)
	}
	runtime.KeepAlive(b)
}

// TestShardBackendRetainsNoView: a worker computes the scores it serves
// and keeps none, so a backend that has served every participant of the
// bench world — 600 vectors of 1 500 scores, 7 MB had it kept them —
// holds less than a quarter of that more heap than before, the
// neighborhoods it filled on the way included.
func TestShardBackendRetainsNoView(t *testing.T) {
	cfg := benchWorldConfig()
	b, err := NewShardBackendFromConfig(cfg, []int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	users := b.Ratings().Users()[:cfg.Social.Users]
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, u := range users {
		if _, err := b.ViewScores(u); err != nil {
			t.Fatalf("ViewScores(%d): %v", u, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	views := int64(len(users)) * int64(len(b.p.poolPos)) * 8
	grew := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("served %d vectors (%.2f MB of scores); heap grew %.2f MB", len(users), float64(views)/(1<<20), float64(grew)/(1<<20))
	if grew > views/4 {
		t.Errorf("serving every participant grew the heap %d bytes, want under %d: the backend keeps the scores it serves", grew, views/4)
	}
	runtime.KeepAlive(b)
}

// serveBackend serves b over loopback and returns the builder a router
// attached to it fetches views with.
func serveBackend(t *testing.T, b *ShardBackend) liststore.Builder {
	t.Helper()
	fleet := StartLoopbackFleet(t, [][]int{b.Owned()}, func([]int) (*ShardBackend, error) { return b, nil })
	if err := fleet.Set.Handshake(b.Fingerprint(), b.Shards()); err != nil {
		t.Fatal(err)
	}
	return fetchViews(fleet.Set, len(b.p.pool))
}

// TestShardBackendConformsToInProcess runs one apply stream — repeated
// pairs and rejected ratings among it — through an in-process world and
// through a shard backend built from the same configuration. Before and
// after the stream, for every participant, the backend's scores equal
// the in-process view's bit for bit, the order a router derives from
// them over the wire equals the in-process order, and a second call
// answers a fresh vector, since the backend keeps none. Every rating is
// accepted or refused alike, with the same typed error.
func TestShardBackendConformsToInProcess(t *testing.T) {
	cfg := tinyConfig()
	cfg.Shards = 2
	inproc, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	worker, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewShardBackend(worker, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	users := inproc.Participants()

	// Wrapping leaves the world's own list store as it was: it still
	// serves the in-process bytes.
	opt := Options{K: 3, NumItems: 100}
	got, err := worker.Recommend(users[:3], opt)
	if err != nil {
		t.Fatal(err)
	}
	if want, err := inproc.Recommend(users[:3], opt); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("a world wrapped as a backend serves %+v, want the in-process %+v (%v)", got, want, err)
	}
	worker = nil
	fetch := serveBackend(t, b)

	check := func(stage string) {
		t.Helper()
		fetched, err := fetch(users)
		if err != nil {
			t.Fatalf("%s: fetching views: %v", stage, err)
		}
		for i, u := range users {
			want, err := acquireView(inproc.lists, u)
			if err != nil {
				t.Fatalf("%s: in-process view of %d: %v", stage, u, err)
			}
			got, err := b.ViewScores(u)
			if err != nil {
				t.Fatalf("%s: ViewScores(%d): %v", stage, u, err)
			}
			if !slices.EqualFunc(got, want.Scores, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("%s: user %d: backend scores differ from the in-process view's", stage, u)
			}
			if !slices.Equal(fetched[i].Order, want.Order) || len(want.Order) != len(want.Scores) {
				t.Fatalf("%s: user %d: the router's derived order differs from the in-process order", stage, u)
			}
			if again, err := b.ViewScores(u); err != nil || &again[0] == &got[0] {
				t.Fatalf("%s: user %d: the backend served one vector twice (%v): it keeps the scores it serves", stage, u, err)
			}
		}
	}
	check("before the stream")

	stream := liveExtraRatings(inproc, 8)
	again := stream[2]
	again.Value, again.Time = 1, again.Time+100
	stream = append(stream,
		again, // a repeated (user, item) pair
		dataset.Rating{User: users[0], Item: stream[0].Item, Value: 9, Time: 978300100},
		dataset.Rating{User: 99999, Item: stream[0].Item, Value: 3, Time: 978300100},
		dataset.Rating{User: users[0], Item: 99999, Value: 3, Time: 978300100},
		stream[4], // the same rating twice
	)
	sentinels := []error{dataset.ErrBadValue, dataset.ErrUnknownUser, dataset.ErrUnknownItem}
	rejected := 0
	for _, r := range stream {
		errIn, errW := inproc.AddRating(r), b.Apply(r)
		if (errIn == nil) != (errW == nil) {
			t.Fatalf("rating %+v: in-process %v, backend %v", r, errIn, errW)
		}
		if errIn == nil {
			continue
		}
		rejected++
		typed := false
		for _, s := range sentinels {
			if errors.Is(errIn, s) != errors.Is(errW, s) {
				t.Fatalf("rating %+v: in-process %v, backend %v: not the same typed error", r, errIn, errW)
			}
			typed = typed || errors.Is(errIn, s)
		}
		if !typed {
			t.Fatalf("rating %+v refused with an untyped error: %v", r, errIn)
		}
	}
	if rejected != 3 {
		t.Fatalf("%d ratings refused, want the 3 bad ones", rejected)
	}
	check("after the stream")
}
