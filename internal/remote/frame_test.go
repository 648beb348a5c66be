package remote

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"repro/internal/dataset"
)

// encodeFrameBytes renders one valid frame to raw bytes for the
// corruption tests to mutilate.
func encodeFrameBytes(t *testing.T, f frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		t.Fatalf("writeFrame: %v", err)
	}
	return buf.Bytes()
}

func TestFrameRoundTrip(t *testing.T) {
	cases := []frame{
		{kind: kindHello, seq: 1, payload: encodeHello(hello{Fingerprint: 0xdeadbeef, Shards: 4})},
		{kind: kindRequest, op: opStats, seq: 42, payload: []byte{1, 2, 3}},
		{kind: kindResult, op: opViewMulti, seq: 7, payload: nil},
		{kind: kindError, op: opApply, seq: 1 << 60, payload: encodeAppError("internal", "boom")},
	}
	for _, want := range cases {
		raw := encodeFrameBytes(t, want)
		got, err := readFrame(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("readFrame(kind %d): %v", want.kind, err)
		}
		if got.kind != want.kind || got.op != want.op || got.seq != want.seq || !bytes.Equal(got.payload, want.payload) {
			t.Errorf("round trip: got %+v, want %+v", got, want)
		}
	}
}

// TestFrameCleanEOF: a stream that ends exactly at a frame boundary is
// a clean close (io.EOF untouched), not a torn frame.
func TestFrameCleanEOF(t *testing.T) {
	if _, err := readFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
	raw := encodeFrameBytes(t, frame{kind: kindResult, seq: 1, payload: []byte("x")})
	r := bytes.NewReader(raw)
	if _, err := readFrame(r); err != nil {
		t.Fatalf("first frame: %v", err)
	}
	if _, err := readFrame(r); err != io.EOF {
		t.Errorf("boundary close: err = %v, want io.EOF", err)
	}
}

// TestFrameTorn: a stream ending inside the header or inside the
// payload is ErrTornFrame — a crashed peer, not a clean close.
func TestFrameTorn(t *testing.T) {
	raw := encodeFrameBytes(t, frame{kind: kindResult, seq: 3, payload: []byte("abcdefgh")})
	for _, cut := range []int{1, frameHdrLen - 1, frameHdrLen, frameHdrLen + 3, len(raw) - 1} {
		if _, err := readFrame(bytes.NewReader(raw[:cut])); !errors.Is(err, ErrTornFrame) {
			t.Errorf("cut at %d: err = %v, want ErrTornFrame", cut, err)
		}
	}
}

// TestFrameBadMagic: a stream that is not this protocol at all.
func TestFrameBadMagic(t *testing.T) {
	raw := encodeFrameBytes(t, frame{kind: kindResult, seq: 1})
	raw[0] ^= 0xff
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrBadFrame) {
		t.Errorf("err = %v, want ErrBadFrame", err)
	}
}

// TestFrameVersionSkew: a peer from a different build — newer, or a
// retired version 2 to 5 — is refused frame by frame.
func TestFrameVersionSkew(t *testing.T) {
	for _, v := range []uint16{frameVersion + 1, 5, 4, 3, 2} {
		raw := encodeFrameBytes(t, frame{kind: kindResult, seq: 1})
		binary.LittleEndian.PutUint16(raw[4:], v)
		if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrVersionSkew) {
			t.Errorf("version %d: err = %v, want ErrVersionSkew", v, err)
		}
	}
}

// TestFrameTooLarge: a length field past MaxPayload is rejected before
// any allocation, on both sides of the pipe.
func TestFrameTooLarge(t *testing.T) {
	raw := encodeFrameBytes(t, frame{kind: kindResult, seq: 1, payload: []byte("xy")})
	binary.LittleEndian.PutUint32(raw[16:], MaxPayload+1)
	if _, err := readFrame(bytes.NewReader(raw)); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("read side: err = %v, want ErrFrameTooLarge", err)
	}
	var buf bytes.Buffer
	if err := writeFrame(&buf, frame{kind: kindResult, payload: make([]byte, MaxPayload+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Errorf("write side: err = %v, want ErrFrameTooLarge", err)
	}
}

// TestFrameCRCMismatch: every byte of header and payload is covered —
// flipping any of them must fail the checksum (flips inside the fields
// readFrame validates first surface as their own typed errors instead).
func TestFrameCRCMismatch(t *testing.T) {
	raw := encodeFrameBytes(t, frame{kind: kindRequest, op: opViewMulti, seq: 9, payload: []byte("payload")})
	for i := 6; i < len(raw)-frameCRCLen; i++ {
		if i >= 16 && i < 20 {
			continue // length field: validated before the CRC
		}
		mut := append([]byte(nil), raw...)
		mut[i] ^= 0x01
		if _, err := readFrame(bytes.NewReader(mut)); !errors.Is(err, ErrCRCMismatch) {
			t.Errorf("flip at %d: err = %v, want ErrCRCMismatch", i, err)
		}
	}
	// A flipped CRC trailer itself must also fail.
	mut := append([]byte(nil), raw...)
	mut[len(mut)-1] ^= 0x01
	if _, err := readFrame(bytes.NewReader(mut)); !errors.Is(err, ErrCRCMismatch) {
		t.Errorf("flipped CRC: err = %v, want ErrCRCMismatch", err)
	}
}

// TestWireShortPayloads: every decoder fails loudly (ErrProtocol) on a
// payload shorter than its own fields claim, never panics or returns
// truncated data.
func TestWireShortPayloads(t *testing.T) {
	full := map[string][]byte{
		"hello":    encodeHello(hello{Fingerprint: 1, Shards: 2}),
		"helloAck": encodeHelloAck([]int{0, 1, 2}, frameVersion),
		"viewReq":  encodeViewMultiReq(viewMultiReq{Users: []dataset.UserID{3, 9}}),
		"vectors":  encodeVectors([][]float64{{1, 2}, {3, 4}}),
		"apply":    encodeApplyReq(applyReq{Seq: 9, Rating: dataset.Rating{User: 1, Item: 2, Value: 3, Time: 4}}),
		"appError": encodeAppError("internal", "msg"),
	}
	decode := map[string]func([]byte) error{
		"hello":    func(p []byte) error { _, err := decodeHello(p); return err },
		"helloAck": func(p []byte) error { _, _, err := decodeHelloAck(p); return err },
		"viewReq":  func(p []byte) error { _, err := decodeViewMultiReq(p); return err },
		"vectors":  func(p []byte) error { _, err := decodeVectors(p, 2, 2); return err },
		"apply":    func(p []byte) error { _, err := decodeApplyReq(p); return err },
		"appError": func(p []byte) error {
			err := decodeAppError(p)
			if errors.Is(err, ErrProtocol) {
				return err
			}
			return nil // a complete payload decodes to an app error, not a protocol error
		},
	}
	// No cut is exempt: the hello ack's version is mandatory, so the
	// version-2 payload shape (cut exactly before it) is a short payload
	// like any other.
	for name, raw := range full {
		dec := decode[name]
		if name != "appError" {
			if err := dec(raw); err != nil {
				t.Errorf("%s: full payload failed: %v", name, err)
			}
		}
		for cut := 0; cut < len(raw); cut++ {
			if err := dec(raw[:cut]); !errors.Is(err, ErrProtocol) {
				t.Errorf("%s cut at %d: err = %v, want ErrProtocol", name, cut, err)
			}
		}
	}
}

// TestWireRoundTrips pins the codec pairs bit-for-bit.
func TestWireRoundTrips(t *testing.T) {
	h, err := decodeHello(encodeHello(hello{Fingerprint: 0xabc, Shards: 9}))
	if err != nil || h.Fingerprint != 0xabc || h.Shards != 9 {
		t.Errorf("hello: %+v, %v", h, err)
	}
	owned, ver, err := decodeHelloAck(encodeHelloAck([]int{2, 0, 5}, frameVersion))
	if err != nil || len(owned) != 3 || owned[0] != 2 || owned[1] != 0 || owned[2] != 5 || ver != frameVersion {
		t.Errorf("helloAck: %v, v%d, %v", owned, ver, err)
	}
	vs := [][]float64{{0.5, 0.25, 1}, {2, -0.5, 0}}
	got, err := decodeVectors(encodeVectors(vs), 2, 3)
	if err != nil || !reflect.DeepEqual(got, vs) {
		t.Errorf("vectors: %v, %v", got, err)
	}
	q, err := decodeViewMultiReq(encodeViewMultiReq(viewMultiReq{Users: []dataset.UserID{11, 4}}))
	if err != nil || len(q.Users) != 2 || q.Users[0] != 11 || q.Users[1] != 4 {
		t.Errorf("viewMultiReq: %+v, %v", q, err)
	}
	ar, err := decodeApplyReq(encodeApplyReq(applyReq{Seq: 12, Rating: dataset.Rating{User: 1, Item: 2, Value: 4.5, Time: -3}}))
	if err != nil || ar.Seq != 12 || ar.Rating != (dataset.Rating{User: 1, Item: 2, Value: 4.5, Time: -3}) {
		t.Errorf("applyReq: %+v, %v", ar, err)
	}
	var want Stats
	want.Neighborhoods.Hits, want.Neighborhoods.Retained = 3, 4
	st, err := decodeStats(mustEncodeStats(t, want))
	if err != nil || st != want {
		t.Errorf("stats: %+v, %v", st, err)
	}
	if _, err := decodeStats([]byte("{not json")); !errors.Is(err, ErrProtocol) {
		t.Errorf("corrupt stats: err = %v, want ErrProtocol", err)
	}
}

// TestWireGoldenBytes pins the hot payload's encoded bytes at
// frameVersion 7 (a multi-user reply is the vector count, then each
// vector as its length and its float64 values): an encoder that sizes
// its buffer differently must still emit exactly these.
func TestWireGoldenBytes(t *testing.T) {
	golden := []struct {
		name string
		got  []byte
		want string
	}{
		{"view reply",
			encodeVectors([][]float64{{1, 0.6, math.Copysign(0, -1)}, {0.2}}),
			"0200000003000000000000000000f03f333333333333e33f0000000000000080010000009a9999999999c93f"},
		{"one-user reply",
			encodeVectors([][]float64{{4.5, 1}}),
			"01000000020000000000000000001240000000000000f03f"},
	}
	for _, g := range golden {
		if got := hex.EncodeToString(g.got); got != g.want {
			t.Errorf("%s:\n got %s\nwant %s", g.name, got, g.want)
		}
		if len(g.got) != cap(g.got) {
			t.Errorf("%s: payload sized %d for %d bytes", g.name, cap(g.got), len(g.got))
		}
	}
}

func mustEncodeStats(t *testing.T, st Stats) []byte {
	t.Helper()
	p, err := encodeStats(st)
	if err != nil {
		t.Fatalf("encodeStats: %v", err)
	}
	return p
}

// TestAppErrorMapping: the dataset trio unwraps to the dataset
// sentinels (the ingest surface's error codes survive the hop);
// config_mismatch unwraps to ErrConfigMismatch; anything else stays an
// AppError carrying its code.
func TestAppErrorMapping(t *testing.T) {
	cases := []struct {
		code string
		want error
	}{
		{codeUnknownUser, dataset.ErrUnknownUser},
		{codeUnknownItem, dataset.ErrUnknownItem},
		{codeBadRating, dataset.ErrBadValue},
		{codeMismatch, ErrConfigMismatch},
		{codeReplicaGap, ErrReplicaGap},
	}
	for _, c := range cases {
		err := decodeAppError(encodeAppError(c.code, "detail"))
		if !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.code, err, c.want)
		}
	}
	err := decodeAppError(encodeAppError(codeWrongShard, "user 9"))
	var ae *AppError
	if !errors.As(err, &ae) || ae.Code != codeWrongShard {
		t.Errorf("wrong_shard: err = %v, want AppError{wrong_shard}", err)
	}
	if ae.Error() == "" {
		t.Error("AppError.Error() empty")
	}
}
