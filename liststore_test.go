package repro

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/remote"
)

// TestRecommendListStoreDifferential is the facade-level acceptance
// test of the sorted-list store: a world served from the store must
// produce byte-identical recommendations to one whose assembler has no
// store (NewDenseWorld), across consensus functions, time models, group
// sizes, and candidate shapes — while actually serving from views.
func TestRecommendListStoreDifferential(t *testing.T) {
	cfg := tinyConfig()
	served, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld(served): %v", err)
	}
	dense, err := NewDenseWorld(cfg)
	if err != nil {
		t.Fatalf("NewDenseWorld: %v", err)
	}

	participants := served.Participants()
	groups := [][]dataset.UserID{
		participants[:1], // single member: no pairs
		participants[2:4],
		participants[5:9],
	}
	opts := []Options{
		{K: 5, NumItems: 120},
		{K: 3, NumItems: 80, Consensus: consensus.PD(0.8)},
		{K: 4, NumItems: 100, TimeModel: TimeAgnostic},
		{K: 2, NumItems: 60, TimeModel: AffinityAgnostic, Consensus: consensus.MO()},
	}
	for gi, group := range groups {
		for oi, opt := range opts {
			want, err1 := dense.Recommend(group, opt)
			got, err2 := served.Recommend(group, opt)
			if err1 != nil || err2 != nil {
				t.Fatalf("group %d opt %d: errors %v / %v", gi, oi, err1, err2)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("group %d opt %d: store-served result diverges\ndense:  %+v\nserved: %+v", gi, oi, want, got)
			}
		}
	}
	st := served.lists.Stats()
	if st.ViewBuilds == 0 {
		t.Errorf("differential traffic never built a view: %+v", st)
	}
	if st.ViewHits == 0 {
		t.Errorf("differential traffic never hit a view: %+v", st)
	}

	// Caller-fixed candidate slices (not popularity-derived) must agree
	// too, whichever path serves them.
	items := served.CandidateItems(groups[1], 90)
	custom := append([]dataset.ItemID(nil), items[:50]...)
	opt := Options{K: 3, Items: custom}
	want, err1 := dense.Recommend(groups[1], opt)
	got, err2 := served.Recommend(groups[1], opt)
	if err1 != nil || err2 != nil {
		t.Fatalf("custom items: errors %v / %v", err1, err2)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("custom items diverge:\ndense:  %+v\nserved: %+v", want, got)
	}
	if st := dense.lists.Stats(); st.ViewBuilds+st.ViewHits != 0 {
		t.Errorf("the dense reference read its list store: %+v", st)
	}
}

// TestWorldViewsMatchTheReferenceSort holds views built by a real world
// (CF predictions over the popularity pool: rating-level ties, mean
// fallbacks, a spread in between) against the comparison sort the list
// store was first written with. The canonical order is a strict total
// order, so the distribution kernel must reproduce it entry for entry.
func TestWorldViewsMatchTheReferenceSort(t *testing.T) {
	w := tinyWorld(t)
	for _, u := range w.Participants()[:12] {
		v, err := acquireView(w.lists, u)
		if err != nil {
			t.Fatalf("acquire %d: %v", u, err)
		}
		want := make([]core.Entry, len(v.Scores))
		for p, score := range v.Scores {
			want[p] = core.Entry{Key: p, Value: score}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].Value != want[j].Value {
				return want[i].Value > want[j].Value
			}
			return want[i].Key < want[j].Key
		})
		for i, e := range want {
			if int(v.Order[i]) != e.Key {
				t.Fatalf("user %d: world-built view diverges from the reference sort at %d", u, i)
			}
		}
	}
}

// TestRecommendBatchSharesViews pins the sweep-sharing property: the
// groups of one batch reuse each member's materialized view.
func TestRecommendBatchSharesViews(t *testing.T) {
	w := tinyWorld(t)
	p := w.Participants()
	opt := Options{K: 3, NumItems: 80}
	reqs := []Request{
		{Group: []dataset.UserID{p[0], p[1]}, Options: opt},
		{Group: []dataset.UserID{p[1], p[2]}, Options: opt},                         // p[1] shared
		{Group: []dataset.UserID{p[0], p[1]}, Options: opt},                         // identical request
		{Group: []dataset.UserID{p[0], p[1]}, Options: Options{K: 2, NumItems: 80}}, // same pool, distinct run
	}
	for i, res := range w.RecommendBatchContext(context.Background(), reqs) {
		if res.Err != nil {
			t.Fatalf("request %d: %v", i, res.Err)
		}
	}
	st := w.lists.Stats()
	// Three distinct members → exactly three builds; the shared member
	// and the same-pool K=2 request produce hits, not rebuilds.
	if st.ViewBuilds != 3 {
		t.Errorf("view builds = %d, want 3 (one per distinct member): %+v", st.ViewBuilds, st)
	}
	if st.ViewHits == 0 {
		t.Errorf("no view sharing across the batch: %+v", st)
	}
}

// TestPartlyCoveredSliceAssemblesDensely pins the all-or-nothing rule
// of view assembly: an explicit candidate slice whose first half and
// more follows the pool order and whose rest does not is served from
// dense rows — no list-store view is acquired for it — and answers the
// store-less reference's bytes, in process and on a router over one and
// over four shards. A router predicts those rows from its own replica:
// the request makes no wire call, its neighborhood fills count in the
// router's CacheStats beside the workers', and it still answers once
// every worker is gone, while a view-served request then fails.
func TestPartlyCoveredSliceAssemblesDensely(t *testing.T) {
	base := liveBaseRatings(t)
	dense := liveWorldBuilt(t, base, 1, NewDenseWorld)
	group := dense.Participants()[:3]
	items := dense.CandidateItems(group, 40)
	if len(items) != 40 {
		t.Fatalf("%d candidates, want 40", len(items))
	}
	slices.Reverse(items[24:]) // pool order for 24 items, then against it
	opt := Options{K: 5, Items: items}
	want, err := dense.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := json.Marshal(want)

	check := func(name string, w *World) {
		t.Helper()
		before := w.lists.Stats()
		got, err := w.Recommend(group, opt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := w.lists.Stats(); st.ViewHits != before.ViewHits || st.ViewBuilds != before.ViewBuilds {
			t.Errorf("%s: a partly covered slice acquired views: %+v -> %+v", name, before, st)
		}
		if gotJSON, _ := json.Marshal(got); !bytes.Equal(gotJSON, wantJSON) {
			t.Errorf("%s: diverges from the dense reference\n got %s\nwant %s", name, gotJSON, wantJSON)
		}
	}
	for shards, owns := range map[int][][]int{1: {{0}}, 4: {{0, 2}, {1, 3}}} {
		check(fmt.Sprintf("in process, %d shards", shards), liveWorldCfg(t, base, shards))
		router := liveWorldCfg(t, base, shards)
		fleet := worldWorkers(t, func() *World { return liveWorldCfg(t, base, shards) }, owns)
		set := fleet.Set
		if err := router.AttachRemote(set); err != nil {
			t.Fatalf("AttachRemote: %v", err)
		}
		name := fmt.Sprintf("router, %d shards", shards)
		calls := router.RemoteStats().Transport.CallsByOp
		check(name, router)
		if after := router.RemoteStats().Transport.CallsByOp; !reflect.DeepEqual(after, calls) {
			t.Errorf("%s: the dense request made wire calls: %v -> %v", name, calls, after)
		}
		own := router.pred.Stats()
		if own.Misses == 0 {
			t.Errorf("%s: the dense request filled no neighborhood on the router: %+v", name, own)
		}
		workers, err := set.Stats()
		if err != nil {
			t.Fatalf("%s: worker stats: %v", name, err)
		}
		want := workers.Neighborhoods
		want.Add(own)
		if got := router.CacheStats().Neighborhoods; got != want {
			t.Errorf("%s: CacheStats neighborhoods %+v, want the workers' %+v plus the router's %+v", name, got, workers.Neighborhoods, own)
		}

		for _, srv := range fleet.Servers {
			srv.Close()
		}
		check(name+", every worker closed", router)
		if _, err := router.Recommend(group, Options{K: 5, NumItems: 40}); !errors.Is(err, remote.ErrShardUnavailable) {
			t.Errorf("%s, every worker closed: view-served request err = %v, want ErrShardUnavailable", name, err)
		}
	}
}
