package persist

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/dataset"
	"repro/internal/shard"
)

// WAL framing. Each shard owns one append-only file, wal-NNN.log,
// mirroring the world's user-range partitioning: a rating is journaled
// into the file of the shard its user hashes to. Every file starts
// with a header (magic, version, configuration fingerprint); every
// record carries a global sequence number — replay merges the shard
// files and sorts by it, because fold order is part of the
// bit-identicality contract — and its own CRC32, so a torn tail is
// detected per record and discarded cleanly.
const (
	walMagic      = "GRECAWAL"
	walVersion    = uint32(1)
	walHeaderLen  = len(walMagic) + 12 // magic + version + fingerprint
	walRecordBody = 40                 // seq + user + item + value + time
	walRecordLen  = walRecordBody + 4  // + crc
)

// WAL is the per-shard write-ahead log of ratings ingested since the
// last snapshot. Appends are serialized internally; the world's ingest
// lock already guarantees a single writer, the WAL's own lock merely
// keeps it safe standalone.
type WAL struct {
	dir string
	sm  shard.Map

	mu      sync.Mutex
	files   []*os.File
	nextSeq uint64
	// discarded counts the intact records OpenWAL threw away because
	// their files carried another configuration's fingerprint.
	discarded int
}

// walRecord is one journaled rating plus its replay position.
type walRecord struct {
	seq uint64
	r   dataset.Rating
}

// OpenWAL opens (creating as needed) the per-shard log files under
// dir for a world partitioned by sm and fingerprinted by configFP,
// replaying whatever they hold: the returned ratings are in original
// append order, ready to re-apply. Recovery is fail-safe per file — a
// header from a different configuration or version discards that
// file's records (they journal a different world), and a torn or
// corrupt tail is truncated at the last intact record. Discarded
// reports how many intact records a fingerprint mismatch cost.
func OpenWAL(dir string, sm shard.Map, configFP uint64) (*WAL, []dataset.Rating, error) {
	sm = shard.Normalize(sm)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("persist: creating WAL dir: %w", err)
	}
	w := &WAL{dir: dir, sm: sm, files: make([]*os.File, sm.N())}
	var recs []walRecord
	for i := range w.files {
		f, shardRecs, discarded, err := openWALShard(w.shardPath(i), configFP)
		if err != nil {
			w.Close()
			return nil, nil, err
		}
		w.files[i] = f
		w.discarded += discarded
		recs = append(recs, shardRecs...)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].seq < recs[j].seq })
	out := make([]dataset.Rating, len(recs))
	for i, rec := range recs {
		out[i] = rec.r
		if rec.seq >= w.nextSeq {
			w.nextSeq = rec.seq + 1
		}
	}
	return w, out, nil
}

// Discarded is the number of intact journaled ratings OpenWAL discarded
// because their shard files were written under a different
// configuration fingerprint — acknowledged ratings this world will
// never see.
func (w *WAL) Discarded() int { return w.discarded }

func (w *WAL) shardPath(i int) string {
	return filepath.Join(w.dir, fmt.Sprintf("wal-%03d.log", i))
}

// openWALShard opens one shard file, validating its header and
// scanning its records. An invalid header (wrong magic, version, or
// fingerprint) resets the file — its records belong to a different
// world; when only the fingerprint differs the records are still
// readable, and discarded counts the intact ones the reset threw away.
// A record that is short or fails its CRC ends the scan and truncates
// the file there, so the next append continues from the last intact
// record.
func openWALShard(path string, configFP uint64) (f *os.File, recs []walRecord, discarded int, err error) {
	f, err = os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, 0, fmt.Errorf("persist: opening WAL shard: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("persist: reading WAL shard: %w", err)
	}
	wellFormed := len(raw) >= walHeaderLen && string(raw[:len(walMagic)]) == walMagic &&
		binary.LittleEndian.Uint32(raw[len(walMagic):]) == walVersion
	var end int
	if wellFormed {
		recs, end = scanWALRecords(raw)
	}
	if !wellFormed || binary.LittleEndian.Uint64(raw[len(walMagic)+4:]) != configFP {
		if err := writeWALHeader(f, configFP); err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		return f, nil, len(recs), nil
	}
	if end != len(raw) {
		if err := f.Truncate(int64(end)); err != nil {
			f.Close()
			return nil, nil, 0, fmt.Errorf("persist: truncating torn WAL tail: %w", err)
		}
	}
	if _, err := f.Seek(int64(end), 0); err != nil {
		f.Close()
		return nil, nil, 0, fmt.Errorf("persist: seeking WAL shard: %w", err)
	}
	return f, recs, 0, nil
}

// scanWALRecords decodes the intact records after raw's header and
// returns them with the offset just past the last one.
func scanWALRecords(raw []byte) ([]walRecord, int) {
	var recs []walRecord
	off := walHeaderLen
	for off+walRecordLen <= len(raw) {
		body := raw[off : off+walRecordBody]
		sum := binary.LittleEndian.Uint32(raw[off+walRecordBody:])
		if crc32.ChecksumIEEE(body) != sum {
			break // torn or corrupt: discard this and everything after
		}
		recs = append(recs, walRecord{
			seq: binary.LittleEndian.Uint64(body[0:]),
			r: dataset.Rating{
				User:  dataset.UserID(binary.LittleEndian.Uint64(body[8:])),
				Item:  dataset.ItemID(binary.LittleEndian.Uint64(body[16:])),
				Value: math.Float64frombits(binary.LittleEndian.Uint64(body[24:])),
				Time:  int64(binary.LittleEndian.Uint64(body[32:])),
			},
		})
		off += walRecordLen
	}
	return recs, off
}

func writeWALHeader(f *os.File, configFP uint64) error {
	var hdr [walHeaderLen]byte
	copy(hdr[:], walMagic)
	binary.LittleEndian.PutUint32(hdr[len(walMagic):], walVersion)
	binary.LittleEndian.PutUint64(hdr[len(walMagic)+4:], configFP)
	if err := f.Truncate(0); err != nil {
		return fmt.Errorf("persist: resetting WAL shard: %w", err)
	}
	if _, err := f.WriteAt(hdr[:], 0); err != nil {
		return fmt.Errorf("persist: writing WAL header: %w", err)
	}
	if _, err := f.Seek(int64(walHeaderLen), 0); err != nil {
		return fmt.Errorf("persist: seeking WAL shard: %w", err)
	}
	return nil
}

// Append journals one applied rating into its user's shard file.
func (w *WAL) Append(r dataset.Rating) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	f := w.files[w.sm.Of(int64(r.User))]
	var rec [walRecordLen]byte
	binary.LittleEndian.PutUint64(rec[0:], w.nextSeq)
	binary.LittleEndian.PutUint64(rec[8:], uint64(r.User))
	binary.LittleEndian.PutUint64(rec[16:], uint64(r.Item))
	binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(r.Value))
	binary.LittleEndian.PutUint64(rec[32:], uint64(r.Time))
	binary.LittleEndian.PutUint32(rec[walRecordBody:], crc32.ChecksumIEEE(rec[:walRecordBody]))
	if _, err := f.Write(rec[:]); err != nil {
		return fmt.Errorf("persist: appending WAL record: %w", err)
	}
	w.nextSeq++
	return nil
}

// Reset discards every journaled record (all shard files shrink back
// to their headers) — called after a snapshot has captured the state
// the records rebuilt.
func (w *WAL) Reset(configFP uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, f := range w.files {
		if err := writeWALHeader(f, configFP); err != nil {
			return err
		}
	}
	w.nextSeq = 0
	return nil
}

// Close closes every shard file. The WAL must not be used afterwards.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	var first error
	for _, f := range w.files {
		if f == nil {
			continue
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
