package repro

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/liststore"
	"repro/internal/persist"
)

// snapshotFile is the snapshot's name inside the persistence
// directory; the WAL's one file lives beside it.
const snapshotFile = "snapshot.bin"

// worldSnapshot is the gob payload of a world snapshot: the rating
// store's canonical dump plus the warm-start caches — the materialized
// sorted-list views and the user-based predictor's neighborhoods. The
// caches are pure functions of the ratings and configuration, so the
// snapshot stays coherent by construction; persisting them is what
// lets a restart skip the rebuilds.
type worldSnapshot struct {
	Ratings       []dataset.Rating
	Views         []liststore.UserView
	Neighborhoods []cf.UserNeighbors
}

// configFingerprint hashes every world-shaping Config field. A
// snapshot or WAL written under a different fingerprint describes a
// different world and is discarded in favor of a cold rebuild. The
// readers are excluded (not hashable), which means a changed ratings
// file behind an unchanged Config is NOT detected — operators who
// swap the dataset must clear the snapshot directory. A field that
// only moves work around (AssemblyWorkers) is excluded so tuning it
// keeps snapshots valid, and of ListStoreSize only
// whether the store exists is hashed (a router and its workers must
// agree on that; see ShardBackend.ViewScores) — its capacity shapes
// nothing, and a journal is reset when the fingerprint differs, so a
// capacity in the hash would let a retuned restart discard acknowledged
// ratings.
func configFingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%d|%d|%t|%t|%d|%v|%d|%t|%d",
		cfg.Dataset, cfg.Social, cfg.Neighbors, cfg.Similarity,
		cfg.ItemBasedCF, cfg.TimeWeightedCF, cfg.CFHalfLife,
		cfg.Granularity, cfg.InitialPeriods,
		cfg.ListStoreSize >= 0, cfg.Shards)
	return h.Sum64()
}

// OpenStats reports how a persisted world came up.
type OpenStats struct {
	// Warm reports that the rating store was rebuilt from a snapshot
	// rather than from the configured source.
	Warm bool `json:"warm"`
	// ReplayedRatings counts WAL records re-applied on top of the
	// store — ratings ingested after the last snapshot.
	ReplayedRatings int `json:"replayed_ratings"`
	// WarmViews and WarmNeighborhoods count the cache entries restored
	// from the snapshot (zero when WAL replay made them stale).
	WarmViews         int `json:"warm_views"`
	WarmNeighborhoods int `json:"warm_neighborhoods"`
	// DiscardedRatings counts the intact journal records thrown away
	// because the journal was written under another configuration
	// fingerprint — acknowledged ratings this world does not hold.
	DiscardedRatings int `json:"discarded_ratings"`
}

// OpenWorld builds a world with persistence under dir: the rating
// store comes from the snapshot when one exists and matches the
// configuration (falling back to a cold NewWorld otherwise), ratings
// journaled since that snapshot are replayed from the write-ahead
// log, and the log is attached so subsequent AddRating calls are
// durable. An empty dir is a plain NewWorld with no persistence.
//
// Warm-start caches (sorted-list views, CF neighborhoods) are
// restored only when the WAL replayed nothing: a replayed rating
// invalidates every view and neighborhood, so restoring them would
// serve pre-ingest state. Either way the serving bytes are identical
// to a world that never restarted — warm restore only skips the
// rebuild work, never changes its result.
func OpenWorld(cfg Config, dir string) (*World, OpenStats, error) {
	var st OpenStats
	if dir == "" {
		w, err := NewWorld(cfg)
		return w, st, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, st, fmt.Errorf("repro: creating snapshot dir: %w", err)
	}
	fp := configFingerprint(cfg)

	var snap worldSnapshot
	var w *World
	switch err := persist.LoadSnapshot(filepath.Join(dir, snapshotFile), fp, &snap); {
	case err == nil:
		c := cfg
		c.RatingsReader = nil
		c.snapshotRatings = snap.Ratings
		warm, werr := NewWorld(c)
		if werr != nil {
			return nil, st, fmt.Errorf("repro: rebuilding world from snapshot: %w", werr)
		}
		w = warm
		st.Warm = true
	case errors.Is(err, persist.ErrNoSnapshot), errors.Is(err, persist.ErrBadSnapshot):
		cold, cerr := NewWorld(cfg)
		if cerr != nil {
			return nil, st, cerr
		}
		w = cold
	default:
		return nil, st, err
	}

	wal, replayed, err := persist.OpenWAL(dir, fp)
	if err != nil {
		return nil, st, err
	}
	// Replay before attaching the log: AddRating journals only once a
	// log is attached, so replayed records are not re-appended.
	for _, r := range replayed {
		if err := w.AddRating(r); err != nil {
			wal.Close()
			return nil, st, fmt.Errorf("repro: replaying journaled rating %+v: %w", r, err)
		}
	}
	st.ReplayedRatings = len(replayed)
	st.DiscardedRatings = wal.Discarded()
	if st.Warm && len(replayed) == 0 {
		st.WarmNeighborhoods = w.pred.RestoreNeighborhoods(snap.Neighborhoods)
		if w.lists != nil {
			st.WarmViews = w.lists.RestoreViews(snap.Views)
		}
	}
	w.SetRatingLog(wal)
	return w, st, nil
}

// SaveWorldSnapshot persists the world under dir: pending deltas are
// folded, the canonical rating dump plus the warm-start caches are
// written as a checksummed snapshot, and the write-ahead log — whose
// records the snapshot now captures — is reset. The ingest lock is
// held throughout, so no rating can land between the dump and the log
// reset and be lost.
func SaveWorldSnapshot(w *World, dir string) error {
	if dir == "" {
		return fmt.Errorf("repro: SaveWorldSnapshot requires a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("repro: creating snapshot dir: %w", err)
	}
	w.ingestMu.Lock()
	defer w.ingestMu.Unlock()
	w.ratings.ReFreeze()
	snap := worldSnapshot{
		Ratings:       w.ratings.DumpRatings(),
		Neighborhoods: w.pred.ExportNeighborhoods(),
	}
	if w.lists != nil {
		snap.Views = w.lists.ExportViews()
	}
	fp := configFingerprint(w.cfg)
	if err := persist.SaveSnapshot(filepath.Join(dir, snapshotFile), fp, &snap); err != nil {
		return err
	}
	if wal, ok := w.wal.(*persist.WAL); ok {
		return wal.Reset(fp)
	}
	return nil
}

// ClosePersistence detaches and closes the world's write-ahead log,
// if one is attached. Call after the last AddRating (for a serve
// process: after the HTTP listener has drained).
func (w *World) ClosePersistence() error {
	w.ingestMu.Lock()
	defer w.ingestMu.Unlock()
	wal, ok := w.wal.(*persist.WAL)
	w.wal = nil
	if !ok {
		return nil
	}
	return wal.Close()
}
