package persist

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/dataset"
)

type snapPayload struct {
	Ratings []dataset.Rating
	Note    string
}

func testPayload() snapPayload {
	return snapPayload{
		Ratings: []dataset.Rating{
			{User: 1, Item: 10, Value: 4.5, Time: 100},
			{User: 2, Item: 20, Value: 2, Time: 200},
		},
		Note: "hello",
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.bin")
	want := testPayload()
	if err := SaveSnapshot(path, 0xbeef, &want); err != nil {
		t.Fatal(err)
	}
	var got snapPayload
	if err := LoadSnapshot(path, 0xbeef, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip = %+v, want %+v", got, want)
	}
}

func TestSnapshotMissingIsErrNoSnapshot(t *testing.T) {
	var got snapPayload
	err := LoadSnapshot(filepath.Join(t.TempDir(), "absent.bin"), 1, &got)
	if !errors.Is(err, ErrNoSnapshot) {
		t.Errorf("missing snapshot = %v, want ErrNoSnapshot", err)
	}
}

// TestSnapshotRejectsMismatches corrupts the file along every framing
// axis and checks each is ErrBadSnapshot — the cold-rebuild fallback
// signal — never a silent wrong decode.
func TestSnapshotRejectsMismatches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.bin")
	payload := testPayload()
	if err := SaveSnapshot(path, 7, &payload); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, mutate func([]byte) []byte, fp uint64) {
		t.Helper()
		raw := append([]byte(nil), good...)
		raw = mutate(raw)
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var got snapPayload
		if err := LoadSnapshot(p, fp, &got); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("%s: err = %v, want ErrBadSnapshot", name, err)
		}
	}

	check("fingerprint", func(b []byte) []byte { return b }, 8)
	check("magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, 7)
	check("version", func(b []byte) []byte { b[8] ^= 0xff; return b }, 7)
	check("checksum", func(b []byte) []byte { b[len(b)-1] ^= 0xff; return b }, 7)
	check("truncated-payload", func(b []byte) []byte { return b[:len(b)-3] }, 7)
	check("truncated-header", func(b []byte) []byte { return b[:10] }, 7)
}

// TestSnapshotSaveIsAtomic overwrites an existing snapshot and checks
// the new content replaced the old completely.
func TestSnapshotSaveIsAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snapshot.bin")
	first := testPayload()
	if err := SaveSnapshot(path, 3, &first); err != nil {
		t.Fatal(err)
	}
	second := testPayload()
	second.Note = "replaced"
	if err := SaveSnapshot(path, 3, &second); err != nil {
		t.Fatal(err)
	}
	var got snapPayload
	if err := LoadSnapshot(path, 3, &got); err != nil {
		t.Fatal(err)
	}
	if got.Note != "replaced" {
		t.Errorf("note = %q, want %q", got.Note, "replaced")
	}
}

func walRatings(n int) []dataset.Rating {
	out := make([]dataset.Rating, n)
	for i := range out {
		out[i] = dataset.Rating{
			User:  dataset.UserID(i * 3),
			Item:  dataset.ItemID(100 + i),
			Value: 1 + float64(i%5),
			Time:  int64(1000 + i),
		}
	}
	return out
}

// TestWALRoundTrip appends, reopens, and checks the replay order
// matches the append order exactly — the property the fold's
// bit-identicality rests on.
func TestWALRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, replayed, err := OpenWAL(dir, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(replayed))
	}
	want := walRatings(17)
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, err := OpenWAL(dir, 42)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("replay = %v, want %v", got, want)
	}

	// Appends after reopen land after the replayed records.
	extra := dataset.Rating{User: 99, Item: 999, Value: 3, Time: 5000}
	if err := w2.Append(extra); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, got3, err := OpenWAL(dir, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(got3) != 18 || !reflect.DeepEqual(got3[17], extra) {
		t.Errorf("post-reopen append lost: %v", got3)
	}
}

// TestWALTruncatedTailDiscarded simulates a torn final write: the last
// record's bytes are cut short, replay must keep every intact record
// and drop the tail, and the file must be usable for appends again.
func TestWALTruncatedTailDiscarded(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := walRatings(5)
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	path := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	w2, got, err := OpenWAL(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want[:4]) {
		t.Errorf("replay after torn tail = %v, want first 4 records", got)
	}
	// The torn bytes are gone from disk, and new appends land cleanly.
	if err := w2.Append(want[4]); err != nil {
		t.Fatal(err)
	}
	w2.Close()
	_, got2, err := OpenWAL(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2, want) {
		t.Errorf("replay after repair append = %v, want %v", got2, want)
	}
}

// TestWALCorruptMiddleDiscardsFromThere flips a byte mid-file: the
// scan stops at the corrupt record, keeping only the prefix.
func TestWALCorruptMiddleDiscardsFromThere(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	want := walRatings(5)
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	path := filepath.Join(dir, walFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[walHeaderLen+2*walRecordLen+5] ^= 0xff // inside record 2
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, got, err := OpenWAL(dir, 9)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if !reflect.DeepEqual(got, want[:2]) {
		t.Errorf("replay after mid-file corruption = %v, want first 2 records", got)
	}
}

// TestTornJournalReplaysAPrefix is the prefix property of crash
// recovery, checked exhaustively on a 17-record journal: cut at every
// offset from the end of the header to the end of the file, and with
// every byte of every record flipped in turn, the replay is exactly the
// intact records before the damage — never a later record past a hole —
// and the next append lands right after them.
func TestTornJournalReplaysAPrefix(t *testing.T) {
	want := walRatings(17)
	src := t.TempDir()
	w, _, err := OpenWAL(src, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range want {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	good, err := os.ReadFile(filepath.Join(src, walFile))
	if err != nil {
		t.Fatal(err)
	}
	if n := walHeaderLen + len(want)*walRecordLen; len(good) != n {
		t.Fatalf("journal of %d ratings is %d bytes, want %d", len(want), len(good), n)
	}

	dir := t.TempDir()
	path := filepath.Join(dir, walFile)
	extra := dataset.Rating{User: 7, Item: 70, Value: 5, Time: 1}
	check := func(damage string, raw []byte, k int) {
		t.Helper()
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		w, got, err := OpenWAL(dir, 9)
		if err != nil {
			t.Fatalf("%s: %v", damage, err)
		}
		if !slices.Equal(got, want[:k]) {
			t.Errorf("%s: replayed %d ratings, want the first %d", damage, len(got), k)
		}
		if err := w.Append(extra); err != nil {
			t.Fatal(err)
		}
		w.Close()
		_, got, err = OpenWAL(dir, 9)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, append(want[:k:k], extra)) {
			t.Errorf("%s: after one append replayed %d ratings, want the first %d and the appended one", damage, len(got), k)
		}
	}
	for off := walHeaderLen; off <= len(good); off++ {
		check(fmt.Sprintf("cut at byte %d", off), good[:off], (off-walHeaderLen)/walRecordLen)
	}
	for i := range want {
		for b := 0; b < walRecordLen; b++ {
			raw := slices.Clone(good)
			raw[walHeaderLen+i*walRecordLen+b] ^= 0xff
			check(fmt.Sprintf("record %d byte %d flipped", i, b), raw, i)
		}
	}
}

// TestRetiredShardJournals pins the upgrade path from the per-shard
// journal: its files are never read. A header-only one — what a clean
// shutdown leaves — is removed and the open goes on; one with bytes
// past its header may hold acknowledged ratings, so the open fails,
// naming it, and leaves it on disk.
func TestRetiredShardJournals(t *testing.T) {
	// A version-1 header: magic, version, fingerprint 9.
	hdr := []byte(walMagic + "\x01\x00\x00\x00" + "\x09\x00\x00\x00\x00\x00\x00\x00")
	dir := t.TempDir()
	for _, name := range []string{"wal-000.log", "wal-001.log"} {
		if err := os.WriteFile(filepath.Join(dir, name), hdr, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	w, got, err := OpenWAL(dir, 9)
	if err != nil {
		t.Fatalf("header-only per-shard files refused the open: %v", err)
	}
	w.Close()
	if len(got) != 0 {
		t.Errorf("replayed %d ratings from header-only files", len(got))
	}
	for _, name := range []string{"wal-000.log", "wal-001.log"} {
		if _, err := os.Stat(filepath.Join(dir, name)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s survived the open: %v", name, err)
		}
	}

	old := filepath.Join(dir, "wal-002.log")
	withRecord := append(slices.Clone(hdr), make([]byte, 44)...) // one version-1 record
	if err := os.WriteFile(old, withRecord, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenWAL(dir, 9); err == nil || !strings.Contains(err.Error(), old) {
		t.Errorf("open beside a per-shard file with records = %v, want an error naming %s", err, old)
	}
	if raw, err := os.ReadFile(old); err != nil || !slices.Equal(raw, withRecord) {
		t.Errorf("the refused per-shard file was not left as it was: %v", err)
	}
}

// TestWALFingerprintMismatchResets pins the fail-safe for config skew:
// a WAL journaled under another world configuration is discarded, not
// replayed into a world it does not describe, and every intact record
// the reset threw away is counted.
func TestWALFingerprintMismatchResets(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range walRatings(6) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	w2, got, err := OpenWAL(dir, 2) // different fingerprint
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if len(got) != 0 {
		t.Errorf("fingerprint mismatch replayed %d records, want 0", len(got))
	}
	if w2.Discarded() != 6 {
		t.Errorf("fingerprint mismatch discarded %d records, want exactly 6", w2.Discarded())
	}
}

// TestWALReset empties the log after a snapshot: reopening replays
// nothing but what was appended after the reset.
func TestWALReset(t *testing.T) {
	dir := t.TempDir()
	w, _, err := OpenWAL(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range walRatings(10) {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(5); err != nil {
		t.Fatal(err)
	}
	after := dataset.Rating{User: 7, Item: 70, Value: 5, Time: 1}
	if err := w.Append(after); err != nil {
		t.Fatal(err)
	}
	w.Close()
	_, got, err := OpenWAL(dir, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !reflect.DeepEqual(got[0], after) {
		t.Errorf("post-reset replay = %v, want just %v", got, after)
	}
}
