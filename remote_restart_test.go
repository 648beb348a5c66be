package repro

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestRestartedRouterServesReferenceBytes: a router booted warm from a
// snapshot holds the ratings and no view, so its first recommend of a
// group fetches the members' views — one view call per owning worker —
// and serves the single-process world's bytes.
func TestRestartedRouterServesReferenceBytes(t *testing.T) {
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
	if !st.Warm {
		t.Fatalf("router boot reported %+v, want warm", st)
	}
	owns := [][]int{{0, 2}, {1, 3}}
	if err := router.AttachRemote(worldWorkers(t, func() *World { return liveWorldCfg(t, base, 4) }, owns).Set); err != nil {
		t.Fatalf("AttachRemote: %v", err)
	}
	if n := router.lists.Len(); n != 0 {
		t.Errorf("%d views resident after a restart, want 0", n)
	}
	owners := map[int]bool{}
	for _, u := range group {
		owners[router.sm.Of(int64(u))%len(owns)] = true
	}

	before := router.RemoteStats().Transport.CallsByOp["view_multi"]
	got, err := router.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	if calls := router.RemoteStats().Transport.CallsByOp["view_multi"] - before; calls != uint64(len(owners)) {
		t.Errorf("first recommend after the restart made %d view calls, want one per owning worker (%d)", calls, len(owners))
	}
	want, err := liveWorldCfg(t, base, 4).Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("restarted router diverged from the single-process world\n got %s\nwant %s", gotJSON, wantJSON)
	}
}
