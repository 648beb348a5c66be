package repro

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/liststore"
)

// heldBuilder wraps a list-store Builder so a test can hold one user's
// build mid-flight: the wrapped builder has already computed the view
// (from whatever state the world was in) when the call parks on release.
type heldBuilder struct {
	inner liststore.Builder

	mu      sync.Mutex
	hold    dataset.UserID
	armed   bool
	entered chan struct{} // receives once the armed build is parked
	release chan struct{} // closed to let it finish
	builds  map[dataset.UserID]int
}

func (h *heldBuilder) build(users []dataset.UserID) ([]*liststore.View, error) {
	views, err := h.inner(users)
	h.mu.Lock()
	park := false
	for _, u := range users {
		h.builds[u]++
		if h.armed && u == h.hold {
			h.armed, park = false, true
		}
	}
	h.mu.Unlock()
	if park {
		h.entered <- struct{}{}
		<-h.release
	}
	return views, err
}

func (h *heldBuilder) buildsOf(u dataset.UserID) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.builds[u]
}

// worldWorkers starts one loopback worker per ownership split, each
// wrapping a world from build, for a router to attach.
func worldWorkers(t *testing.T, build func() *World, owns [][]int) *LoopbackFleet {
	t.Helper()
	return StartLoopbackFleet(t, owns, func(owned []int) (*ShardBackend, error) {
		return NewShardBackend(build(), owned)
	})
}

// scoresByItem keys a view's scores by item. A live world's pool keeps
// its load-time popularity order while a cold rebuild ranks the extended
// dataset, so two coherent views agree item by item, not position by
// position.
func scoresByItem(s *liststore.Store, v *liststore.View) map[dataset.ItemID]float64 {
	out := make(map[dataset.ItemID]float64, len(v.Scores))
	for p, it := range s.Pool() {
		out[it] = v.Scores[p]
	}
	return out
}

// TestRatingLeavesNoViewResident pins the one thing ingest does to the
// list store, identically in-process and on a router (a worker keeps no
// view to drop): after AddRating the store is empty; a build held
// mid-flight across the ingest reaches the acquirers waiting on it and
// never becomes resident; and the next acquire rebuilds post-ingest
// bytes, equal to a cold world's over the extended dataset.
func TestRatingLeavesNoViewResident(t *testing.T) {
	base := liveBaseRatings(t)
	for _, shards := range []int{1, 4} {
		for _, router := range []bool{false, true} {
			name := fmt.Sprintf("shards=%d/router=%v", shards, router)
			t.Run(name, func(t *testing.T) {
				build := func() *World { return liveWorldCfg(t, base, shards) }
				// The world under test, its list store pointed at a
				// holdable builder: the local one in-process, the wire
				// fetch on a router (the default store size either way).
				var live *World
				held := &heldBuilder{entered: make(chan struct{}, 1), release: make(chan struct{}), builds: map[dataset.UserID]int{}}
				if router {
					owns := [][]int{{0}}
					if shards == 4 {
						owns = [][]int{{0, 2}, {1, 3}}
					}
					set := worldWorkers(t, build, owns).Set
					live = build()
					if err := live.AttachRemote(set); err != nil {
						t.Fatalf("AttachRemote: %v", err)
					}
					held.inner = fetchViews(set, len(live.lists.Pool()))
				} else {
					live = build()
					held.inner = engine.LocalBuilder(live.pred, live.poolPos)
				}
				live.lists.SetBuilder(held.build)

				group := live.Participants()[:3]
				rater := live.Participants()[5]
				r := liveExtraRatings(live, 6)[5]
				if r.User != rater {
					t.Fatalf("extra rating is by user %d, want the held user %d", r.User, rater)
				}

				// Warm: the group's views resident here.
				if _, err := live.Recommend(group, Options{K: 5}); err != nil {
					t.Fatal(err)
				}
				if live.lists.Len() != len(group) {
					t.Fatalf("warm store holds %d views, want %d", live.lists.Len(), len(group))
				}

				// Hold the rater's own build — its view certainly moves: the
				// rated item's score becomes the rating — with a second
				// acquirer waiting on the same mid-build entry.
				held.mu.Lock()
				held.hold, held.armed = rater, true
				held.mu.Unlock()
				results := make(chan *liststore.View, 2)
				acquire := func() {
					v, err := acquireView(live.lists, rater)
					if err != nil {
						t.Error(err)
					}
					results <- v
				}
				hitsBefore := live.lists.Stats().ViewHits
				go acquire()
				<-held.entered
				go acquire()
				for live.lists.Stats().ViewHits == hitsBefore {
					runtime.Gosched()
				}

				if err := live.AddRating(r); err != nil {
					t.Fatal(err)
				}
				if n := live.lists.Len(); n != 0 {
					t.Errorf("%d views resident after AddRating, want 0", n)
				}

				close(held.release)
				first, second := <-results, <-results
				if first == nil || first != second {
					t.Fatalf("waiters got %p and %p, want the one held view", first, second)
				}
				if n := live.lists.Len(); n != 0 {
					t.Errorf("the held build became resident: %d views after it settled", n)
				}

				// The next acquires rebuild, and serve a cold world's bytes.
				cold := liveWorldCfg(t, appendRatingsText(base, []dataset.Rating{r}), shards)
				builds := held.buildsOf(rater)
				for _, u := range append([]dataset.UserID{rater}, group...) {
					got, err := acquireView(live.lists, u)
					if err != nil {
						t.Fatal(err)
					}
					want, err := acquireView(cold.lists, u)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(scoresByItem(live.lists, got), scoresByItem(cold.lists, want)) {
						t.Errorf("user %d: post-ingest view differs from a cold rebuild's", u)
					}
				}
				if got := held.buildsOf(rater); got != builds+1 {
					t.Errorf("rater's view built %d times after the ingest, want 1 rebuild", got-builds)
				}
				if after, _ := acquireView(live.lists, rater); reflect.DeepEqual(after.Scores, first.Scores) {
					t.Errorf("held view equals the post-ingest one: the hold did not straddle the ingest")
				}
				got, err := live.Recommend(group, Options{K: 5})
				if err != nil {
					t.Fatal(err)
				}
				want, err := cold.Recommend(group, Options{K: 5})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("post-ingest recommendation diverged from cold rebuild\n got %+v\nwant %+v", got, want)
				}
			})
		}
	}
}
