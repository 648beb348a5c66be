package repro

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/affinity"
	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/persist"
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
// saved after live ingest and reopened from its snapshot must serve
// byte-identical recommendations.
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
	if st := w1.IngestStats(); st.Applied != 3 {
		t.Fatalf("ingest stats %+v, want 3 applied", st)
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
	got, err := w2.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm restart diverged\n got %+v\nwant %+v", got, want)
	}
}

// TestSaveWorldSnapshotKeepsJournalWhenSnapshotFails pins the commit
// order of a snapshot: the journal is reset only once the snapshot that
// replaces it is on disk. Here the snapshot cannot be installed (a
// directory holds its name), so SaveWorldSnapshot must fail, leave no
// temp file behind, and keep the journal — a reopen replays every
// acknowledged rating and serves what the world served before.
func TestSaveWorldSnapshotKeepsJournalWhenSnapshotFails(t *testing.T) {
	base := liveBaseRatings(t)
	dir := t.TempDir()

	w1, _, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	acked := liveExtraRatings(w1, 3)
	for _, r := range acked {
		if err := w1.AddRating(r); err != nil {
			t.Fatal(err)
		}
	}
	group := w1.Participants()[:3]
	opt := Options{K: 5}
	want, err := w1.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}

	blocker := filepath.Join(dir, snapshotFile)
	if err := os.MkdirAll(filepath.Join(blocker, "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := SaveWorldSnapshot(w1, dir); err == nil {
		t.Fatal("SaveWorldSnapshot succeeded although the snapshot could not be installed")
	}
	if err := w1.ClosePersistence(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), ".snapshot-") {
			t.Errorf("the failed save left %s behind", e.Name())
		}
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}

	w2, st, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.ClosePersistence()
	if st.Warm || st.ReplayedRatings != len(acked) {
		t.Fatalf("reopen after the failed save reported %+v, want cold with %d replayed", st, len(acked))
	}
	got, err := w2.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("reopen after the failed save diverged\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotIsAFunctionOfTheRatings: a snapshot holds the ratings and
// nothing the caches hold, so a world with every participant's view and
// neighborhood resident and a cold world over the same ratings write
// byte-identical snapshots.
func TestSnapshotIsAFunctionOfTheRatings(t *testing.T) {
	base := liveBaseRatings(t)
	warm, err := NewWorld(persistTestConfig(base))
	if err != nil {
		t.Fatal(err)
	}
	cold, err := NewWorld(persistTestConfig(base))
	if err != nil {
		t.Fatal(err)
	}
	participants := warm.Participants()
	if _, err := warm.lists.AcquireMulti(participants); err != nil {
		t.Fatal(err)
	}
	for _, u := range participants {
		warm.pred.Neighbors(u)
	}
	if n := warm.lists.Len(); n != len(participants) {
		t.Fatalf("%d views resident, want %d", n, len(participants))
	}
	if n := warm.CacheStats().Neighborhoods.Size; n < len(participants) {
		t.Fatalf("%d neighborhoods resident, want at least %d", n, len(participants))
	}

	snapshot := func(w *World) []byte {
		dir := t.TempDir()
		if err := SaveWorldSnapshot(w, dir); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, snapshotFile))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if w, c := snapshot(warm), snapshot(cold); !bytes.Equal(w, c) {
		t.Errorf("the warm world's snapshot (%d bytes) differs from the cold world's (%d bytes)", len(w), len(c))
	}
}

// TestSnapshotWithCachesStillBoots: a snapshot written when the payload
// also carried the views and neighborhoods boots warm from its ratings,
// restores none of the caches, and serves the bytes of a world that
// never restarted.
func TestSnapshotWithCachesStillBoots(t *testing.T) {
	type userView struct {
		User   dataset.UserID
		Scores []float64
	}
	type userNeighbors struct {
		User      dataset.UserID
		Neighbors []cf.Neighbor
	}
	type snapshotWithCaches struct {
		Ratings       []dataset.Rating
		Views         []userView
		Neighborhoods []userNeighbors
	}

	base := liveBaseRatings(t)
	cfg := persistTestConfig(base)
	w1, err := NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	group := w1.Participants()[:3]
	opt := Options{K: 5}
	want, err := w1.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	views, err := w1.lists.AcquireMulti(group)
	if err != nil {
		t.Fatal(err)
	}
	old := snapshotWithCaches{Ratings: w1.ratings.DumpRatings()}
	for i, u := range group {
		old.Views = append(old.Views, userView{User: u, Scores: views[i].Scores})
		old.Neighborhoods = append(old.Neighborhoods, userNeighbors{User: u, Neighbors: w1.pred.Neighbors(u)})
	}
	dir := t.TempDir()
	if err := persist.SaveSnapshot(filepath.Join(dir, snapshotFile), configFingerprint(cfg), &old); err != nil {
		t.Fatal(err)
	}

	w2, st, err := OpenWorld(persistTestConfig(base), dir)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.ClosePersistence()
	if !st.Warm || st.ReplayedRatings != 0 {
		t.Fatalf("boot from a snapshot with caches reported %+v, want warm with no replay", st)
	}
	if n, nb := w2.lists.Len(), w2.CacheStats().Neighborhoods.Size; n != 0 || nb != 0 {
		t.Errorf("boot left %d views / %d neighborhoods resident, want none", n, nb)
	}
	got, err := w2.Recommend(group, opt)
	if err != nil {
		t.Fatal(err)
	}
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if !bytes.Equal(gotJSON, wantJSON) {
		t.Errorf("boot from a snapshot with caches diverged\n got %s\nwant %s", gotJSON, wantJSON)
	}
}

// TestIngestThenRestartMatchesNeverRestarting pins WAL replay: ingest
// without ever snapshotting, drop the process, reopen — the replayed
// world must match a world that ingested the same ratings and never
// restarted. Then snapshot, ingest more, drop again: the reopen
// replays only the post-snapshot records.
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
	// post-snapshot records replay.
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
//
// The second value pins a config with Neighbors, InitialPeriods,
// Granularity and Shards off their QuickConfig values, so the terms
// around the constant ones are held byte for byte beyond the zero
// values too.
func TestConfigFingerprintPinned(t *testing.T) {
	t.Run("QuickConfig", func(t *testing.T) {
		const want = 0x27433f51babd4b60
		if got := configFingerprint(QuickConfig()); got != want {
			t.Errorf("configFingerprint(QuickConfig()) = %#x, want %#x", got, uint64(want))
		}
	})
	t.Run("tuned", func(t *testing.T) {
		cfg := QuickConfig()
		cfg.Neighbors = 30
		cfg.InitialPeriods = 2
		cfg.Granularity = affinity.Month
		cfg.Shards = 4
		const wantTuned = 0x29b265e205724600
		if got := configFingerprint(cfg); got != wantTuned {
			t.Errorf("configFingerprint(%+v) = %#x, want %#x", cfg, got, uint64(wantTuned))
		}
	})
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
