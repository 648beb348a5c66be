package repro

import (
	"testing"
	"time"

	"repro/internal/dataset"
)

// TestSmokeRecommend exercises the full pipeline at scalability scale
// and logs timing and access statistics; it guards the paper's
// headline claim (≥75% access saveup) end to end.
func TestSmokeRecommend(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := QuickConfig()
	start := time.Now()
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	t.Logf("world built in %v", time.Since(start))

	group := w.Participants()[:6]
	start = time.Now()
	rec, err := w.Recommend(group, Options{K: 10, NumItems: 900})
	if err != nil {
		t.Fatalf("Recommend: %v", err)
	}
	t.Logf("recommend in %v; stats=%+v pctSA=%.2f stop=%v",
		time.Since(start), rec.Stats, rec.Stats.PercentSA(), rec.Stats.Stop)
	if len(rec.Items) != 10 {
		t.Fatalf("got %d items, want 10", len(rec.Items))
	}
	if rec.Stats.Saveup() < 50 {
		t.Errorf("saveup %.1f%% below 50%%", rec.Stats.Saveup())
	}
}

// TestServeSmokeRatingsUncoverTheSlice pins the world the CI
// distributed smoke drives (greca-serve's defaults: QuickConfig, seed
// 1, four shards, workers owning {0,2} and {1,3}). After the smoke's
// first rating the {1,5,9} slice over 200 items is still in pool order,
// so it is served from views; after its second (user 20 on item 664)
// it is not, so a router answers it from its own dense rows. The
// SIGKILL step still finds a single-user slice over 120 items on worker
// 0's shards that is view-served (503 with that worker dead) and a user
// that answers.
func TestServeSmokeRatingsUncoverTheSlice(t *testing.T) {
	cfg := QuickConfig()
	cfg.Dataset.Seed, cfg.Social.Seed = 1, 2
	cfg.Shards = 4
	w, err := NewWorld(cfg)
	if err != nil {
		t.Fatalf("NewWorld: %v", err)
	}
	covered := func(group []dataset.UserID, n int) bool {
		_, ok := w.lists.MapCandidates(w.CandidateItems(group, n))
		return ok
	}
	group := []dataset.UserID{1, 5, 9}
	for i, r := range []dataset.Rating{
		{User: 1, Item: 7, Value: 5, Time: 978300000},
		{User: 20, Item: 664, Value: 5, Time: 978300001},
	} {
		if !covered(group, 200) {
			t.Fatalf("before rating %d: the {1,5,9}/200 slice is already uncovered", i+1)
		}
		if err := w.AddRating(r); err != nil {
			t.Fatalf("rating %d: %v", i+1, err)
		}
	}
	if covered(group, 200) {
		t.Fatal("after both ratings the {1,5,9}/200 slice is still covered: the smoke would not reach dense rows")
	}

	var dead, live dataset.UserID
	for u := dataset.UserID(1); u <= 60 && (dead == 0 || live == 0); u++ {
		if _, err := w.Recommend([]dataset.UserID{u}, Options{K: 3, NumItems: 120}); err != nil {
			continue
		}
		onDeadWorker := w.sm.Of(int64(u))%2 == 0
		if onDeadWorker && covered([]dataset.UserID{u}, 120) {
			if dead == 0 {
				dead = u
			}
		} else if live == 0 {
			live = u
		}
	}
	if dead == 0 || live == 0 {
		t.Errorf("dead-shard user %d, live user %d: the SIGKILL step needs both", dead, live)
	}
	t.Logf("dead-shard user %d, live user %d", dead, live)
}
