package repro

import (
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"

	"repro/internal/dataset"
	"repro/internal/persist"
)

// snapshotFile is the snapshot's name inside the persistence
// directory; the WAL's one file lives beside it.
const snapshotFile = "snapshot.bin"

// worldSnapshot is the gob payload of a world snapshot: the rating
// store's canonical dump and nothing else. Every cache over the store —
// the sorted-list views, the predictor's neighborhoods — is a function
// of the ratings, so a restarted world fills them on first use exactly
// as a cold one does. A snapshot written when the payload also carried
// Views and Neighborhoods still loads: gob skips fields the struct no
// longer has.
type worldSnapshot struct {
	Ratings []dataset.Rating
}

// configFingerprint hashes every world-shaping Config field. A
// snapshot or WAL written under a different fingerprint describes a
// different world and is discarded in favor of a cold rebuild. The
// readers are excluded (not hashable), which means a changed ratings
// file behind an unchanged Config is NOT detected — operators who
// swap the dataset must clear the snapshot directory. No cache
// capacity is hashed: ListStoreSize shapes nothing, and a journal is
// reset when the fingerprint differs, so a capacity in the hash would
// let a retuned restart discard acknowledged ratings. The
// ListStoreSize >= 0 term is constant — a negative size is refused by
// NewWorld — and stays only so that existing snapshots and journals
// keep their fingerprint. So do the constants 0|false|false|0: they
// stand where four fields choosing another preference source
// (similarity measure, item-based, time-weighted, half-life) were
// hashed, at the values every deployed configuration gave them.
func configFingerprint(cfg Config) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v|%+v|%d|%d|%t|%t|%d|%v|%d|%t|%d",
		cfg.Dataset, cfg.Social, cfg.Neighbors, 0,
		false, false, 0,
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
// The world comes up with every cache empty, warm or cold, and serves
// the bytes of a world that never restarted — unless that world ran
// AppendNextPeriod: a period append is neither journaled nor
// snapshotted, so the reopened world has the pre-append index and
// serves the pre-append recommendations.
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
	w.SetRatingLog(wal)
	return w, st, nil
}

// SaveWorldSnapshot persists the world under dir: the canonical rating
// dump is written as a checksummed snapshot, and the write-ahead log —
// whose records the snapshot now captures — is reset. The ingest lock
// is held throughout, so no rating can land between the dump and the
// log reset and be lost.
func SaveWorldSnapshot(w *World, dir string) error {
	if dir == "" {
		return fmt.Errorf("repro: SaveWorldSnapshot requires a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("repro: creating snapshot dir: %w", err)
	}
	w.ingestMu.Lock()
	defer w.ingestMu.Unlock()
	snap := worldSnapshot{Ratings: w.ratings.DumpRatings()}
	fp := w.fingerprint
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
