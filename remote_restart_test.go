package repro

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestWarmRouterServesRestoredViews: a router booted warm from a
// snapshot keeps the views it restored when it attaches its worker
// fleet, so its first recommend of a restored group makes no view call
// and serves the single-process world's bytes.
func TestWarmRouterServesRestoredViews(t *testing.T) {
	base := liveBaseRatings(t)
	dir := t.TempDir()
	opt := Options{K: 5}

	w1, _, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	group := w1.Participants()[:3]
	if _, err := w1.Recommend(group, opt); err != nil {
		t.Fatal(err)
	}
	if err := SaveWorldSnapshot(w1, dir); err != nil {
		t.Fatal(err)
	}
	if err := w1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	router, st, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer router.ClosePersistence()
	if !st.Warm || st.WarmViews != len(group) {
		t.Fatalf("router boot reported %+v, want warm with %d views", st, len(group))
	}
	set, _, _ := startViewWorkers(t, func() *World { return liveWorldCfg(t, base, 4) }, 4, [][]int{{0, 2}, {1, 3}})
	if err := router.AttachRemote(set); err != nil {
		t.Fatalf("AttachRemote: %v", err)
	}
	if n := router.lists.Len(); n != len(group) {
		t.Errorf("%d views resident after AttachRemote, want the %d restored", n, len(group))
	}

	before := router.RemoteStats().Transport.CallsByOp["view_multi"]
	got, err := router.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls := router.RemoteStats().Transport.CallsByOp["view_multi"] - before; calls != 0 {
		t.Errorf("first recommend of a restored group made %d view calls, want 0", calls)
	}
	want, err := liveWorldCfg(t, base, 4).Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("warm router diverged from the single-process world\n got %s\nwant %s", gotJSON, wantJSON)
	}
}
