package repro

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
)

// persistTestConfig builds the config used by every persistence test:
// a fixed ratings text loaded through a fresh reader each call (the
// reader is consumed by NewWorld), everything else liveTestConfig.
func persistTestConfig(ratings string) Config {
	cfg := liveTestConfig()
	cfg.RatingsReader = strings.NewReader(ratings)
	cfg.Shards = 4
	return cfg
}

// TestWarmRestartByteIdentical is the restart differential: a world
// saved after live ingest and reopened must serve byte-identical
// recommendations while skipping the view rebuild entirely — warm
// loads, not view builds, proven via the list-store counters.
func TestWarmRestartByteIdentical(t *testing.T) {
	base := liveBaseRatings(t)
	dir := t.TempDir()

	w1, st1, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Warm || st1.ReplayedRatings != 0 {
		t.Fatalf("first boot reported %+v, want cold", st1)
	}
	group := w1.Participants()[:3]
	opt := Options{K: 5}
	if _, err := w1.Recommend(group, opt); err != nil {
		t.Fatal(err)
	}
	for _, r := range liveExtraRatings(w1, 3) {
		if err := w1.AddRating(r); err != nil {
			t.Fatal(err)
		}
	}
	want, err := w1.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveWorldSnapshot(w1, dir); err != nil {
		t.Fatal(err)
	}
	if st := w1.IngestStats(); st.Pending != 0 {
		t.Fatalf("snapshot left %d deltas pending", st.Pending)
	}
	if err := w1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	w2, st2, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.ClosePersistence()
	if !st2.Warm || st2.ReplayedRatings != 0 {
		t.Fatalf("restart reported %+v, want warm with no replay", st2)
	}
	if st2.WarmViews == 0 || st2.WarmNeighborhoods == 0 {
		t.Fatalf("restart restored %d views / %d neighborhoods, want both > 0", st2.WarmViews, st2.WarmNeighborhoods)
	}
	got, err := w2.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm restart diverged\n got %+v\nwant %+v", got, want)
	}
	ls := w2.CacheStats().ListStore
	if ls.ViewBuilds != 0 {
		t.Errorf("warm restart built %d views, want 0 (restored views must serve)", ls.ViewBuilds)
	}
	if ls.WarmLoads == 0 || ls.ViewHits == 0 {
		t.Errorf("warm counters = %d loads / %d hits, want both > 0", ls.WarmLoads, ls.ViewHits)
	}
}

// TestWarmRestartKeepsNeighborhoodsAcrossFirstRating pins the restored
// neighborhoods' dependency tracking: their co-rater sets are
// recomputed at restore time, so the first rating after a warm reopen
// drops only the neighborhoods it reaches — it used to drop every
// restored one — and what is served over the retained ones is what a
// cold world holding the same ratings serves.
func TestWarmRestartKeepsNeighborhoodsAcrossFirstRating(t *testing.T) {
	base := liveBaseRatings(t)
	dir := t.TempDir()
	const warmUsers = 30
	opt := Options{K: 5}

	w1, _, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	users := w1.Ratings().Users()
	for g := 0; g+3 <= warmUsers; g += 3 {
		if _, err := w1.Recommend(users[g:g+3], opt); err != nil {
			t.Fatal(err)
		}
	}
	if err := SaveWorldSnapshot(w1, dir); err != nil {
		t.Fatal(err)
	}
	if err := w1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	w2, st2, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.ClosePersistence()
	if !st2.Warm || st2.WarmNeighborhoods < warmUsers {
		t.Fatalf("restart reported %+v, want warm with at least %d neighborhoods", st2, warmUsers)
	}
	// One rating by one user on its least-popular unrated item: the
	// smallest reach an ingest can have.
	ranked := w2.Ratings().PopularityRanked()
	var r dataset.Rating
	for i := len(ranked) - 1; i >= 0; i-- {
		if !w2.Ratings().HasRated(users[0], ranked[i]) {
			r = dataset.Rating{User: users[0], Item: ranked[i], Value: 5, Time: 978300000}
			break
		}
	}
	if err := w2.AddRating(r); err != nil {
		t.Fatal(err)
	}
	nb := w2.CacheStats().Neighborhoods
	if nb.Retained == 0 {
		t.Errorf("the first rating after a warm restart retained no neighborhood: %+v", nb)
	}
	if nb.Invalidated == 0 {
		t.Errorf("the first rating after a warm restart dropped no neighborhood — the rater's own must: %+v", nb)
	}
	if nb.Size == 0 || nb.Misses != 0 {
		t.Errorf("neighborhood cache after the rating = %+v, want restored entries resident and no fill yet", nb)
	}

	cold := liveWorldCfg(t, appendRatingsText(base, []dataset.Rating{r}), 4, nil)
	for g := 0; g+3 <= warmUsers; g += 3 {
		want, err := cold.Recommend(users[g:g+3], opt)
		if err != nil {
			t.Fatal(err)
		}
		got, err := w2.Recommend(users[g:g+3], opt)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("group %v: served over restored neighborhoods diverged from a cold world\n got %+v\nwant %+v", users[g:g+3], got, want)
		}
	}
	if after := w2.CacheStats().Neighborhoods; after.Hits == 0 {
		t.Errorf("no request was served from a retained restored neighborhood: %+v", after)
	}
}

// TestIngestThenRestartMatchesNeverRestarting pins WAL replay: ingest
// without ever snapshotting, drop the process, reopen — the replayed
// world must match a world that ingested the same ratings and never
// restarted. Then snapshot, ingest more, drop again: the reopen
// replays only the post-snapshot records and skips the warm caches.
func TestIngestThenRestartMatchesNeverRestarting(t *testing.T) {
	base := liveBaseRatings(t)
	dir := t.TempDir()

	w1, _, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	extra := liveExtraRatings(w1, 4)
	for _, r := range extra[:2] {
		if err := w1.AddRating(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.ClosePersistence(); err != nil { // no snapshot: simulate a crash with a journal
		t.Fatal(err)
	}

	never, err := NewWorld(persistTestConfig(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range extra[:2] {
		if err := never.AddRating(r); err != nil {
			t.Fatal(err)
		}
	}
	group := never.Participants()[:3]
	want, err := never.Recommend(group, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}

	w2, st2, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Warm || st2.ReplayedRatings != 2 {
		t.Fatalf("crash recovery reported %+v, want cold with 2 replayed", st2)
	}
	got, err := w2.Recommend(group, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replayed world diverged from never-restarted world")
	}

	// Snapshot now, ingest two more, crash again: only the
	// post-snapshot records replay, and warm caches are skipped
	// because replay made them stale.
	if err := SaveWorldSnapshot(w2, dir); err != nil {
		t.Fatal(err)
	}
	for _, r := range extra[2:] {
		if err := w2.AddRating(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w2.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	for _, r := range extra[2:] {
		if err := never.AddRating(r); err != nil {
			t.Fatal(err)
		}
	}
	want, err = never.Recommend(group, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	w3, st3, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.ClosePersistence()
	if !st3.Warm || st3.ReplayedRatings != 2 {
		t.Fatalf("second recovery reported %+v, want warm store with 2 replayed", st3)
	}
	if st3.WarmViews != 0 || st3.WarmNeighborhoods != 0 {
		t.Errorf("replay restored stale caches: %d views / %d neighborhoods", st3.WarmViews, st3.WarmNeighborhoods)
	}
	got, err = w3.Recommend(group, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("snapshot+replay world diverged from never-restarted world")
	}
}

// TestJournalSurvivesListStoreResize is the regression for a cache
// capacity in the config fingerprint: a journal written under one
// ListStoreSize and reopened under another (a retuned restart, or the
// greca CLI pointed at a greca-serve directory) must replay every
// acknowledged rating — a fingerprint mismatch resets the journal — and
// serve what a cold rebuild over the same ratings serves.
func TestJournalSurvivesListStoreResize(t *testing.T) {
	base := liveBaseRatings(t)
	dir := t.TempDir()

	w1, _, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	extra := liveExtraRatings(w1, 3)
	for _, r := range extra {
		if err := w1.AddRating(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.ClosePersistence(); err != nil { // no snapshot: the journal is all there is
		t.Fatal(err)
	}

	resized := persistTestConfig(base)
	resized.ListStoreSize = 64
	w2, st2, err := OpenWorld(resized, dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.ClosePersistence()
	if st2.ReplayedRatings != len(extra) {
		t.Fatalf("reopen under another ListStoreSize replayed %d ratings, want %d", st2.ReplayedRatings, len(extra))
	}

	cold, err := NewWorld(persistTestConfig(base))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range extra {
		if err := cold.AddRating(r); err != nil {
			t.Fatal(err)
		}
	}
	group := cold.Participants()[:3]
	want, err := cold.Recommend(group, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := w2.Recommend(group, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("resized reopen diverged from a cold rebuild\n got %+v\nwant %+v", got, want)
	}
}

// TestConfigFingerprintPinned pins the fingerprint of QuickConfig() to
// the value every release so far has computed. Journals and snapshots
// in the field are keyed by it and a journal under another fingerprint
// is reset, so a change to the hash — a field added or dropped, the
// format string reordered — must be a decision, never the side effect of
// editing Config: an upgrade would discard acknowledged ratings.
func TestConfigFingerprintPinned(t *testing.T) {
	const want = 0x27433f51babd4b60
	if got := configFingerprint(QuickConfig()); got != want {
		t.Errorf("configFingerprint(QuickConfig()) = %#x, want %#x", got, uint64(want))
	}
}

// TestJournalResetIsReported: a journal written under one world-shaping
// configuration and reopened under another is still reset (its ratings
// belong to a different world), but no longer silently — the boot
// report counts every acknowledged rating the reset discarded.
func TestJournalResetIsReported(t *testing.T) {
	base := liveBaseRatings(t)
	dir := t.TempDir()

	w1, st1, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st1.DiscardedRatings != 0 {
		t.Fatalf("fresh directory reported %d discarded ratings", st1.DiscardedRatings)
	}
	extra := liveExtraRatings(w1, 3)
	for _, r := range extra {
		if err := w1.AddRating(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	reshaped := func() Config {
		cfg := persistTestConfig(base)
		cfg.Neighbors = 7
		return cfg
	}
	w2, st2, err := OpenWorld(reshaped(), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.DiscardedRatings != len(extra) || st2.ReplayedRatings != 0 {
		t.Fatalf("reopen under another Neighbors: discarded %d, replayed %d; want %d, 0",
			st2.DiscardedRatings, st2.ReplayedRatings, len(extra))
	}
	if err := w2.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	// The journal is empty now: a third open under the same
	// configuration finds nothing to replay and nothing to discard.
	w3, st3, err := OpenWorld(reshaped(), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.ClosePersistence()
	if st3.DiscardedRatings != 0 || st3.ReplayedRatings != 0 {
		t.Fatalf("journal not empty after the reset: discarded %d, replayed %d", st3.DiscardedRatings, st3.ReplayedRatings)
	}
}

// TestRetiredShardJournalRefusesOpen: a per-shard journal file left by
// an earlier release that may hold acknowledged ratings is never read
// and never dropped — the open fails, naming it, returns no world, and
// the file stays on disk for the operator.
func TestRetiredShardJournalRefusesOpen(t *testing.T) {
	dir := t.TempDir()
	old := filepath.Join(dir, "wal-001.log")
	if err := os.WriteFile(old, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	w, _, err := OpenWorld(persistTestConfig(liveBaseRatings(t)), dir)
	if err == nil || !strings.Contains(err.Error(), old) {
		t.Fatalf("open beside a per-shard journal with records = %v, want an error naming %s", err, old)
	}
	if w != nil {
		t.Errorf("a refused journal still returned a world")
	}
	if info, err := os.Stat(old); err != nil || info.Size() != 64 {
		t.Errorf("the refused per-shard journal was not left as it was: %v", err)
	}
}

// TestSnapshotMismatchFallsBackCold pins the fail-safe: a snapshot
// from a different configuration, or a corrupted snapshot file, is
// ignored and the world boots cold — never a crash, never a world
// built from untrusted bytes.
func TestSnapshotMismatchFallsBackCold(t *testing.T) {
	base := liveBaseRatings(t)
	dir := t.TempDir()
	w1, _, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveWorldSnapshot(w1, dir); err != nil {
		t.Fatal(err)
	}
	if err := w1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	other := persistTestConfig(base)
	other.Neighbors = 7 // different world shape
	w2, st2, err := OpenWorld(other, dir)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Warm {
		t.Errorf("config mismatch still booted warm")
	}
	if err := w2.ClosePersistence(); err != nil {
		t.Fatal(err)
	}

	// Corrupt the snapshot payload; checksum must catch it.
	path := filepath.Join(dir, "snapshot.bin")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w3, st3, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w3.ClosePersistence()
	if st3.Warm {
		t.Errorf("corrupted snapshot still booted warm")
	}
	if _, err := w3.Recommend(w3.Participants()[:3], Options{K: 5}); err != nil {
		t.Errorf("cold fallback world cannot serve: %v", err)
	}
}

// TestAddRatingJournalsThroughLog checks the wiring: with persistence
// attached, every AddRating lands in the WAL (visible on reopen), and
// rejected ratings never do.
func TestAddRatingJournalsThroughLog(t *testing.T) {
	base := liveBaseRatings(t)
	dir := t.TempDir()
	w1, _, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	good := liveExtraRatings(w1, 1)[0]
	if err := w1.AddRating(good); err != nil {
		t.Fatal(err)
	}
	if err := w1.AddRating(dataset.Rating{User: good.User, Item: good.Item, Value: 99}); err == nil {
		t.Fatal("out-of-range rating accepted")
	}
	if err := w1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	_, st, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplayedRatings != 1 {
		t.Errorf("journal replayed %d ratings, want exactly the accepted one", st.ReplayedRatings)
	}
}
