package repro

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/shard"
)

// shardedWorld builds a tinyConfig world with the given shard count.
func shardedWorld(t *testing.T, shards int) *World {
	t.Helper()
	cfg := tinyConfig()
	cfg.Shards = shards
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld(shards=%d): %v", shards, err)
	}
	if got := w.Shards(); got != maxInt(shards, 1) {
		t.Fatalf("world shards = %d, want %d", got, shards)
	}
	return w
}

// shardMap is the routing map of w's shard count: the one the router
// and the workers agree on, so sm.Of(u) is the shard whose worker
// serves u.
func shardMap(t *testing.T, w *World) *shard.Map {
	t.Helper()
	sm, err := shard.New(w.Shards())
	if err != nil {
		t.Fatal(err)
	}
	return sm
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// mixedShardGroup picks one participant per distinct shard until size
// is reached, guaranteeing the group spans at least min(size, shards)
// shards — the mixed-shard case the sharded assembly must serve
// without cross-shard coordination.
func mixedShardGroup(t *testing.T, w *World, size int) []dataset.UserID {
	t.Helper()
	group := make([]dataset.UserID, 0, size)
	sm := shardMap(t, w)
	seen := make(map[int]bool)
	for _, u := range w.Participants() {
		if s := sm.Of(int64(u)); !seen[s] {
			seen[s] = true
			group = append(group, u)
			if len(group) == size {
				break
			}
		}
	}
	// Smaller shard counts may not offer `size` distinct shards; top
	// up with remaining participants.
	for _, u := range w.Participants() {
		if len(group) == size {
			break
		}
		dup := false
		for _, g := range group {
			if g == u {
				dup = true
				break
			}
		}
		if !dup {
			group = append(group, u)
		}
	}
	if len(seen) < 2 && w.Shards() > 1 {
		t.Fatalf("mixed-shard group spans %d shards, want >= 2", len(seen))
	}
	return group
}

// TestRecommendShardedDifferential is the facade-level acceptance test
// of the shard count: Config.Shards ∈ {1, 4, 16} must produce
// byte-identical recommendations to the default world — across
// consensus functions, time models, group shapes (single member,
// mixed-shard groups), and candidate sizes. A shard only routes users
// to workers; it must never move a score or a tie order.
func TestRecommendShardedDifferential(t *testing.T) {
	baseline := tinyWorld(t) // Config.Shards zero: the unsharded seed path
	participants := baseline.Participants()
	opts := []Options{
		{K: 5, NumItems: 120},
		{K: 3, NumItems: 80, Consensus: consensus.PD(0.8)},
		{K: 4, NumItems: 100, TimeModel: TimeAgnostic},
		{K: 2, NumItems: 60, TimeModel: AffinityAgnostic, Consensus: consensus.MO()},
		{K: 3, NumItems: 90, Consensus: consensus.MO(), TimeModel: Continuous},
	}
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			w := shardedWorld(t, shards)
			groups := [][]dataset.UserID{
				participants[:1], // single member: no pairs, no affinity
				participants[2:4],
				mixedShardGroup(t, w, 5),
			}
			for gi, group := range groups {
				for oi, opt := range opts {
					want, err1 := baseline.Recommend(group, opt)
					got, err2 := w.Recommend(group, opt)
					if err1 != nil || err2 != nil {
						t.Fatalf("group %d opt %d: errors %v / %v", gi, oi, err1, err2)
					}
					if !reflect.DeepEqual(want, got) {
						t.Errorf("group %d opt %d: sharded result diverges\nunsharded: %+v\nsharded:   %+v", gi, oi, want, got)
					}
				}
			}
			// Post-invalidation rebuilds: dropping every view must
			// rebuild the identical state.
			group := mixedShardGroup(t, w, 4)
			opt := Options{K: 4, NumItems: 100}
			want, err := baseline.Recommend(group, opt)
			if err != nil {
				t.Fatalf("baseline recommend: %v", err)
			}
			if _, err := w.Recommend(group, opt); err != nil {
				t.Fatalf("priming recommend: %v", err)
			}
			w.lists.InvalidateAll()
			got, err := w.Recommend(group, opt)
			if err != nil {
				t.Fatalf("post-invalidation recommend: %v", err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("post-invalidation rebuild diverges\nunsharded: %+v\nsharded:   %+v", want, got)
			}
			if st := w.lists.Stats(); st.Rebuilds == 0 {
				t.Errorf("invalidation produced no rebuilds: %+v", st)
			}
		})
	}
}

// TestBatchShardAwareDifferential pins the batch facade to the
// sequential one across shards ∈ {1,4,16}, with AP, MO and PD consensus,
// single-shard and mixed-shard groups, a duplicate and an invalid
// request in the same batch (the worlds BenchmarkBatchShardAware
// measures). Which worker runs a request must never change a result
// byte.
func TestBatchShardAwareDifferential(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			w := shardedWorld(t, shards)
			parts := w.Participants()
			sm := shardMap(t, w)
			sameShard := func(n int) []dataset.UserID {
				var g []dataset.UserID
				for _, u := range parts {
					if sm.Of(int64(u)) == sm.Of(int64(parts[0])) {
						if g = append(g, u); len(g) == n {
							break
						}
					}
				}
				return g
			}
			reqs := []Request{
				{Group: parts[:3], Options: Options{K: 4, NumItems: 150}},
				{Group: parts[4:6], Options: Options{K: 4, NumItems: 150, Consensus: consensus.MO()}},
				{Group: mixedShardGroup(t, w, 5), Options: Options{K: 3, NumItems: 120, Consensus: consensus.PD(0.8)}},
				{Group: sameShard(2), Options: Options{K: 4, NumItems: 150}},
				{Group: sameShard(3), Options: Options{K: 3, NumItems: 120, Consensus: consensus.PD(0.8)}},
				{Group: sameShard(1), Options: Options{K: 2, NumItems: 100, Consensus: consensus.MO()}},
				{Group: parts[:3], Options: Options{K: 4, NumItems: 150}},
				{Group: nil, Options: Options{K: 4}},
			}
			got := w.RecommendBatchContext(context.Background(), reqs)
			for i, req := range reqs {
				if len(req.Group) == 0 {
					if got[i].Err == nil {
						t.Errorf("request %d: empty group did not error", i)
					}
					continue
				}
				want, err := w.Recommend(req.Group, req.Options)
				if err != nil {
					t.Fatalf("sequential request %d: %v", i, err)
				}
				if !reflect.DeepEqual(got[i].Recommendation, want) {
					t.Errorf("request %d: batch result diverged from sequential", i)
				}
			}
		})
	}
}

// TestRunnerShardedDifferential pins the core and engine levels: the
// problems a world at any shard count assembles must drive every
// execution mode to the same result as the default world's problems —
// same top-k, same bounds, same access counts, same stop reason.
func TestRunnerShardedDifferential(t *testing.T) {
	baseline := tinyWorld(t)
	group := baseline.Participants()[3:7]
	opt := Options{K: 4, NumItems: 90}
	modes := []core.Mode{core.ModeGRECA, core.ModeThresholdExact, core.ModeFullScan, core.ModeTA}
	for _, shards := range []int{1, 4, 16} {
		w := shardedWorld(t, shards)
		for _, mode := range modes {
			wantProb, wantItems, err := baseline.BuildProblem(group, opt)
			if err != nil {
				t.Fatalf("baseline BuildProblem: %v", err)
			}
			gotProb, gotItems, err := w.BuildProblem(group, opt)
			if err != nil {
				t.Fatalf("sharded BuildProblem (shards=%d): %v", shards, err)
			}
			if !reflect.DeepEqual(wantItems, gotItems) {
				t.Fatalf("shards=%d: candidate slices diverge", shards)
			}
			want, err1 := wantProb.Run(mode)
			got, err2 := gotProb.Run(mode)
			if err1 != nil || err2 != nil {
				t.Fatalf("shards=%d mode=%v: run errors %v / %v", shards, mode, err1, err2)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("shards=%d mode=%v: results diverge\nunsharded: %+v\nsharded:   %+v", shards, mode, want, got)
			}
		}
	}
}
