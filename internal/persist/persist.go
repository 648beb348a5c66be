// Package persist is the durability layer of the live world: a
// versioned, checksummed snapshot file for the world's ratings and a
// single write-ahead log for the ratings ingested since the last
// snapshot. Both formats fail safe — any corruption, version skew, or
// configuration mismatch is reported as a typed error so the caller
// can fall back to a cold rebuild instead of serving from a state it
// cannot trust.
package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Snapshot framing: an 8-byte magic, a format version, the world
// configuration fingerprint the payload was built under, the payload
// length, and a CRC32 over the payload. The payload itself is gob.
const (
	snapshotMagic   = "GRECASN1"
	snapshotVersion = uint32(1)
)

// ErrNoSnapshot reports that no snapshot file exists — the normal
// first-boot condition, distinct from corruption.
var ErrNoSnapshot = errors.New("persist: no snapshot")

// ErrBadSnapshot reports a snapshot that cannot be trusted: wrong
// magic or version, a checksum mismatch, a truncated file, or a
// configuration fingerprint that does not match the caller's world.
// Callers fall back to a cold rebuild.
var ErrBadSnapshot = errors.New("persist: bad snapshot")

// SaveSnapshot gob-encodes payload and writes it with the versioned
// header and checksum, atomically (write to a temp file in the same
// directory, then rename) so a crash mid-save never clobbers the
// previous good snapshot. The temp file is synced before the rename and
// the directory after it, so once SaveSnapshot returns the snapshot is
// on disk under its name — the caller may then reset the journal the
// snapshot replaces.
func SaveSnapshot(path string, configFP uint64, payload any) error {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload); err != nil {
		return fmt.Errorf("persist: encoding snapshot: %w", err)
	}
	var out bytes.Buffer
	out.WriteString(snapshotMagic)
	var hdr [24]byte
	binary.LittleEndian.PutUint32(hdr[0:], snapshotVersion)
	binary.LittleEndian.PutUint64(hdr[4:], configFP)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(body.Len()))
	binary.LittleEndian.PutUint32(hdr[20:], crc32.ChecksumIEEE(body.Bytes()))
	out.Write(hdr[:])
	out.Write(body.Bytes())

	tmp, err := os.CreateTemp(filepath.Dir(path), ".snapshot-*")
	if err != nil {
		return fmt.Errorf("persist: creating snapshot temp file: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(out.Bytes()); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: writing snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: syncing snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: closing snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("persist: installing snapshot: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return fmt.Errorf("persist: syncing snapshot directory: %w", err)
	}
	return nil
}

// syncDir flushes a directory's entries — a rename into it — to disk.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// LoadSnapshot validates the snapshot at path against the caller's
// configuration fingerprint and gob-decodes the payload into out. A
// missing file is ErrNoSnapshot; every validation failure wraps
// ErrBadSnapshot.
func LoadSnapshot(path string, configFP uint64, out any) error {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return ErrNoSnapshot
	}
	if err != nil {
		return fmt.Errorf("persist: reading snapshot: %w", err)
	}
	if len(raw) < len(snapshotMagic)+24 {
		return fmt.Errorf("%w: truncated header (%d bytes)", ErrBadSnapshot, len(raw))
	}
	if string(raw[:len(snapshotMagic)]) != snapshotMagic {
		return fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	hdr := raw[len(snapshotMagic):]
	if v := binary.LittleEndian.Uint32(hdr[0:]); v != snapshotVersion {
		return fmt.Errorf("%w: version %d, want %d", ErrBadSnapshot, v, snapshotVersion)
	}
	if fp := binary.LittleEndian.Uint64(hdr[4:]); fp != configFP {
		return fmt.Errorf("%w: config fingerprint %x, want %x", ErrBadSnapshot, fp, configFP)
	}
	n := binary.LittleEndian.Uint64(hdr[12:])
	sum := binary.LittleEndian.Uint32(hdr[20:])
	body := hdr[24:]
	if uint64(len(body)) != n {
		return fmt.Errorf("%w: payload %d bytes, header says %d", ErrBadSnapshot, len(body), n)
	}
	if got := crc32.ChecksumIEEE(body); got != sum {
		return fmt.Errorf("%w: checksum %x, want %x", ErrBadSnapshot, got, sum)
	}
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(out); err != nil {
		return fmt.Errorf("%w: decoding payload: %v", ErrBadSnapshot, err)
	}
	return nil
}
