package persist

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// fuzzFP is the configuration fingerprint the fuzz targets open under.
const fuzzFP = 0x5eed

// FuzzOpenWAL opens arbitrary bytes as the journal. The open never
// panics or fails; what it replays is a prefix of the records a plain
// decode of the bytes finds, ending where the bytes stop holding a
// record with a good checksum; a second open replays the same ratings;
// and one append then replays as one more.
func FuzzOpenWAL(f *testing.F) {
	dir := f.TempDir()
	w, _, err := OpenWAL(dir, fuzzFP)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range walRatings(5) {
		if err := w.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	w.Close()
	good, err := os.ReadFile(filepath.Join(dir, walFile))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-7])
	f.Add(good[:walHeaderLen])
	f.Add(good[:walHeaderLen-1])
	f.Add([]byte{})

	extra := dataset.Rating{User: 1, Item: 2, Value: 3, Time: 4}
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := OpenWAL(dir, fuzzFP)
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		if want := decodeJournal(raw); !slices.Equal(got, want) {
			t.Fatalf("replayed %d ratings, want the %d-record prefix with good checksums", len(got), len(want))
		}
		w, again, err := OpenWAL(dir, fuzzFP)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(again, got) {
			t.Fatalf("second open replayed %d ratings, first %d", len(again), len(got))
		}
		if err := w.Append(extra); err != nil {
			t.Fatal(err)
		}
		w.Close()
		_, after, err := OpenWAL(dir, fuzzFP)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(after, append(got[:len(got):len(got)], extra)) {
			t.Fatalf("after one append replayed %d ratings, want %d", len(after), len(got)+1)
		}
	})
}

// decodeJournal is the fuzz target's reference decoder, written from
// the format rather than from scanWALRecords: under a header of this
// version and fingerprint, the records from the first one up to the
// first that is cut short or fails its checksum.
func decodeJournal(raw []byte) []dataset.Rating {
	if len(raw) < walHeaderLen || string(raw[:8]) != walMagic ||
		binary.LittleEndian.Uint32(raw[8:]) != walVersion || binary.LittleEndian.Uint64(raw[12:]) != fuzzFP {
		return nil
	}
	var out []dataset.Rating
	for rec := raw[walHeaderLen:]; len(rec) >= 36; rec = rec[36:] {
		if crc32.ChecksumIEEE(rec[:32]) != binary.LittleEndian.Uint32(rec[32:]) {
			break
		}
		out = append(out, dataset.Rating{
			User:  dataset.UserID(binary.LittleEndian.Uint64(rec[0:])),
			Item:  dataset.ItemID(binary.LittleEndian.Uint64(rec[8:])),
			Value: math.Float64frombits(binary.LittleEndian.Uint64(rec[16:])),
			Time:  int64(binary.LittleEndian.Uint64(rec[24:])),
		})
	}
	return out
}

// FuzzLoadSnapshot loads arbitrary bytes as the snapshot: the load
// never panics, and either decodes a payload or reports the file as
// untrustworthy (ErrBadSnapshot) — the cold-rebuild signal.
func FuzzLoadSnapshot(f *testing.F) {
	path := filepath.Join(f.TempDir(), "snapshot.bin")
	payload := testPayload()
	if err := SaveSnapshot(path, fuzzFP, &payload); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add(good[:10])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "snapshot.bin")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var got snapPayload
		if err := LoadSnapshot(path, fuzzFP, &got); err != nil && !errors.Is(err, ErrBadSnapshot) {
			t.Fatalf("load = %v, want a payload or ErrBadSnapshot", err)
		}
	})
}
