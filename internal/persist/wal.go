package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/dataset"
)

// WAL framing. The journal is one append-only file, wal.log: a header
// (magic, version, configuration fingerprint), then one record per
// applied rating in the order the world applied them. File order is
// replay order — the fold order the bit-identicality contract rests
// on — so records carry no sequence number, only their own CRC32. The
// first record that is short or fails its checksum ends the journal and
// the file is truncated there: what replays is always a prefix of what
// was appended.
const (
	walFile       = "wal.log"
	walMagic      = "GRECAWAL"
	walVersion    = uint32(2)
	walHeaderLen  = len(walMagic) + 12 // magic + version + fingerprint
	walRecordBody = 32                 // user + item + value + time
	walRecordLen  = walRecordBody + 4  // + crc
)

// shardWALGlob matches the per-shard journal files earlier releases
// wrote (wal-000.log, wal-001.log, ...), one per world shard.
const shardWALGlob = "wal-*.log"

// WAL is the write-ahead log of ratings ingested since the last
// snapshot. Appends are serialized internally; the world's ingest lock
// already guarantees a single writer, the WAL's own lock merely keeps
// it safe standalone.
type WAL struct {
	mu sync.Mutex
	f  *os.File
	// end is the offset just past the last intact record: the next
	// append writes there, over whatever a failed append left behind.
	end int64
	// discarded counts the intact records OpenWAL threw away because
	// the file carried another configuration's fingerprint.
	discarded int
}

// OpenWAL opens (creating as needed) the journal under dir for a world
// fingerprinted by configFP, replaying whatever it holds: the returned
// ratings are in append order, ready to re-apply. Recovery is
// fail-safe — a header from a different configuration or version
// discards the records (they journal a different world), and a torn or
// corrupt record truncates the file at the last intact one. Discarded
// reports how many intact records a fingerprint mismatch cost.
//
// Per-shard files left by an earlier release are never read: one that
// holds no record past its header (what a clean shutdown leaves) is
// removed, and one that may hold records fails the open with an error
// naming it, so no acknowledged rating is dropped silently.
func OpenWAL(dir string, configFP uint64) (*WAL, []dataset.Rating, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: creating WAL dir: %w", err)
	}
	if err := retireShardWALs(dir); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(dir, walFile)
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("persist: opening WAL: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("persist: reading WAL: %w", err)
	}
	w := &WAL{f: f}
	wellFormed := len(raw) >= walHeaderLen && string(raw[:len(walMagic)]) == walMagic &&
		binary.LittleEndian.Uint32(raw[len(walMagic):]) == walVersion
	var recs []dataset.Rating
	if wellFormed {
		recs, w.end = scanWALRecords(raw)
	}
	if !wellFormed || binary.LittleEndian.Uint64(raw[len(walMagic)+4:]) != configFP {
		if err := w.reset(configFP); err != nil {
			f.Close()
			return nil, nil, err
		}
		w.discarded = len(recs)
		return w, nil, nil
	}
	if w.end != int64(len(raw)) {
		if err := f.Truncate(w.end); err != nil {
			f.Close()
			return nil, nil, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
	}
	return w, recs, nil
}

// retireShardWALs removes the header-only per-shard journal files of
// an earlier release and refuses to go on past one that may hold
// records.
func retireShardWALs(dir string) error {
	paths, err := filepath.Glob(filepath.Join(dir, shardWALGlob))
	if err != nil {
		return fmt.Errorf("persist: listing per-shard WAL files: %w", err)
	}
	for _, p := range paths {
		info, err := os.Stat(p)
		if err != nil {
			return fmt.Errorf("persist: inspecting per-shard WAL file: %w", err)
		}
		if info.Size() > int64(walHeaderLen) {
			return fmt.Errorf("persist: %s holds journaled ratings in the retired per-shard format; "+
				"replay it with the release that wrote it, or remove it to discard them", p)
		}
		if err := os.Remove(p); err != nil {
			return fmt.Errorf("persist: removing empty per-shard WAL file: %w", err)
		}
	}
	return nil
}

// Discarded is the number of intact journaled ratings OpenWAL discarded
// because the journal was written under a different configuration
// fingerprint — acknowledged ratings this world will never see.
func (w *WAL) Discarded() int { return w.discarded }

// scanWALRecords decodes the intact records after raw's header and
// returns them with the offset just past the last one.
func scanWALRecords(raw []byte) ([]dataset.Rating, int64) {
	var recs []dataset.Rating
	off := walHeaderLen
	for off+walRecordLen <= len(raw) {
		body := raw[off : off+walRecordBody]
		sum := binary.LittleEndian.Uint32(raw[off+walRecordBody:])
		if crc32.ChecksumIEEE(body) != sum {
			break // torn or corrupt: discard this and everything after
		}
		recs = append(recs, dataset.Rating{
			User:  dataset.UserID(binary.LittleEndian.Uint64(body[0:])),
			Item:  dataset.ItemID(binary.LittleEndian.Uint64(body[8:])),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(body[16:])),
			Time:  int64(binary.LittleEndian.Uint64(body[24:])),
		})
		off += walRecordLen
	}
	return recs, int64(off)
}

// reset shrinks the file to a fresh header. Caller holds mu or owns w
// exclusively.
func (w *WAL) reset(configFP uint64) error {
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint32(hdr[len(walMagic):], walVersion)
	binary.LittleEndian.PutUint64(hdr[len(walMagic)+4:], configFP)
	if err := w.f.Truncate(0); err != nil {
		return fmt.Errorf("persist: resetting WAL: %w", err)
	}
	if _, err := w.f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("persist: writing WAL header: %w", err)
	}
	w.end = int64(walHeaderLen)
	return nil
}

// Append journals one applied rating after the last intact record.
func (w *WAL) Append(r dataset.Rating) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var rec [walRecordLen]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(r.User))
	binary.LittleEndian.PutUint64(rec[8:], uint64(r.Item))
	binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(r.Value))
	binary.LittleEndian.PutUint64(rec[24:], uint64(r.Time))
	binary.LittleEndian.PutUint32(rec[walRecordBody:], crc32.ChecksumIEEE(rec[:walRecordBody]))
	if _, err := w.f.WriteAt(rec[:], w.end); err != nil {
		return fmt.Errorf("persist: appending WAL record: %w", err)
	}
	w.end += walRecordLen
	return nil
}

// Reset discards every journaled record (the file shrinks back to its
// header) — called after a snapshot has captured the state the records
// rebuilt.
func (w *WAL) Reset(configFP uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.reset(configFP)
}

// Close closes the journal file. The WAL must not be used afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.f.Close()
}
