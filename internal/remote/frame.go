// Package remote is the multi-process transport of the sharded world:
// a length-prefixed binary RPC layer that puts shard workers in their
// own processes behind the shard.Map routing users to workers. A
// greca-shard worker holds the user plane of a replica world (its
// rating store and predictor) and answers three ops for the router: the
// view scores of its owned shards' users, computed per call and kept
// nowhere, every rating apply, and its neighborhood-cache counters. The
// router scatters mixed-shard groups, gathers views into its own list
// store, the deployment's one view cache, predicts any dense rows from
// its own replica, and runs the GRECA core locally. Routing only decides
// which process computes a value, never the value, so a router fronting
// N worker processes serves byte-identical responses to the in-process
// world.
//
// The package owns the apply protocol whole: ShardSet.Apply stamps each
// rating with the next apply sequence, fans it out to every worker in
// that order and counts the applies whose owning worker missed it; a
// Server folds each sequence once, in order, and refuses a gap, and the
// set fences a worker that misses a write. The router's world only
// hands it each rating after its own fold.
//
// Framing shares the persistence layer's record style: every frame
// carries a magic, a protocol version, a per-connection sequence
// number (a reply echoes its request's, so a reply out of step with
// its call is caught), a length-prefixed payload, and its own
// CRC32, so a torn stream or a flipped bit is detected per frame and
// mapped to a typed error instead of silently decoding garbage.
// Every call is one request frame answered by exactly one frame: a
// result, or an error carrying an application code. A multi-user read's
// result holds one vector per requested user, so no caller ever sees a
// partial answer. A connection carries one call at a time; concurrent
// calls ride separate connections.
package remote

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Frame layout (little-endian), mirroring the persist record style:
//
//	magic   u32  "GRCA"
//	version u16  protocol version
//	kind    u8   frame kind (hello, helloAck, request, result, error)
//	op      u8   operation (requests; echoed by every response frame)
//	seq     u64  per-connection sequence, echoed by responses
//	length  u32  payload byte count
//	payload length bytes
//	crc     u32  CRC32 (IEEE) over header + payload
const (
	frameMagic = uint32(0x41435247) // "GRCA" little-endian
	// frameVersion 7: version 6 (every call answered by one frame — a
	// multi-user view read by one vector per user, an apply by an empty
	// result; the protocol version advertised in the hello ack) without
	// the dense-prediction op, since a router predicts its own dense
	// rows. It is the only version spoken: router and workers deploy
	// from one build, and a frame at any other version is
	// ErrVersionSkew.
	frameVersion = uint16(7)
	frameHdrLen  = 4 + 2 + 1 + 1 + 8 + 4
	frameCRCLen  = 4
)

// MaxPayload bounds a single frame's payload. The largest legitimate
// payload — a multi-user read's vectors over a full candidate pool — is
// a few hundred KB; anything past the bound is a corrupt length field
// or a misbehaving peer, rejected before allocation. A worker whose
// reply would exceed it answers an internal error instead.
const MaxPayload = 8 << 20

// Frame kinds. A request is answered by exactly one kindResult or
// kindError frame. Code 4 was the progress frame that streamed view
// chunks before version 6; it stays retired.
const (
	kindHello    = uint8(1) // connection handshake, router → worker
	kindHelloAck = uint8(2) // handshake accept, worker → router
	kindRequest  = uint8(3)
	kindResult   = uint8(5) // success
	kindError    = uint8(6) // failure (code + message payload)
)

// Operations of the data plane. Codes 1 and 2 were the single-user
// reads the batched view read replaced, 4 the per-user view drop
// nothing called, and 7 predict_multi, the dense-row read a router now
// answers from its own replica; they stay retired.
const (
	opApply = uint8(3) // rating → apply, empty result
	opStats = uint8(5) // () → the worker's cache totals
	// opViewMulti carries every group member the worker owns, so an
	// assembly costs one round trip per worker, not one per member.
	opViewMulti = uint8(6) // users → per-user view scores
)

// Typed framing and transport errors. The client maps everything
// transport-shaped onto ErrShardUnavailable / ErrShardTimeout for the
// serving layer; the finer-grained sentinels below are what the
// framing tests pin and what diagnostics wrap.
var (
	// ErrTornFrame marks a stream that ended mid-frame — a crashed or
	// killed peer, detected by a short read inside a frame.
	ErrTornFrame = errors.New("remote: torn frame")
	// ErrBadFrame marks a frame whose magic is wrong — the peer is not
	// speaking this protocol (or the stream lost sync).
	ErrBadFrame = errors.New("remote: bad frame magic")
	// ErrVersionSkew marks a frame from a different protocol version;
	// router and workers must be deployed from the same build.
	ErrVersionSkew = errors.New("remote: protocol version skew")
	// ErrFrameTooLarge marks a length field past MaxPayload.
	ErrFrameTooLarge = errors.New("remote: frame exceeds payload bound")
	// ErrCRCMismatch marks a frame whose checksum does not cover its
	// bytes — corruption in transit.
	ErrCRCMismatch = errors.New("remote: frame CRC mismatch")
	// ErrConfigMismatch marks a worker built from a different world
	// configuration (hello fingerprint, shard-count, or owned-shard
	// disagreement).
	ErrConfigMismatch = errors.New("remote: world configuration mismatch")
	// ErrReplicaGap marks a worker that detected a hole in the apply
	// sequence: it missed at least one fanned-out rating and refuses
	// to ingest past the gap — its replica is behind and must not
	// serve until rebuilt (the router fences it).
	ErrReplicaGap = errors.New("remote: replica missed an apply")
	// ErrProtocol marks a well-formed frame that violates the RPC
	// discipline (wrong sequence, unexpected kind).
	ErrProtocol = errors.New("remote: protocol violation")

	// ErrShardUnavailable is the serving-layer verdict for a shard
	// whose worker cannot be reached (dial failure, dead connection,
	// mid-call disconnect) after the bounded retries. The HTTP surface
	// maps it to 503 + Retry-After.
	ErrShardUnavailable = errors.New("remote: shard unavailable")
	// ErrShardTimeout is the serving-layer verdict for a call that
	// exceeded its deadline while the worker stayed connected. The
	// HTTP surface maps it to 504.
	ErrShardTimeout = errors.New("remote: shard timeout")
)

// frame is one decoded wire frame.
type frame struct {
	kind    uint8
	op      uint8
	seq     uint64
	payload []byte
}

// writeFrame encodes and writes one frame. The payload is bounded by
// MaxPayload on the write side too, so an oversized response is a
// local error instead of a peer's decode failure.
func writeFrame(w io.Writer, f frame) error {
	if len(f.payload) > MaxPayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.payload))
	}
	buf := make([]byte, frameHdrLen+len(f.payload)+frameCRCLen)
	binary.LittleEndian.PutUint32(buf[0:], frameMagic)
	binary.LittleEndian.PutUint16(buf[4:], frameVersion)
	buf[6] = f.kind
	buf[7] = f.op
	binary.LittleEndian.PutUint64(buf[8:], f.seq)
	binary.LittleEndian.PutUint32(buf[16:], uint32(len(f.payload)))
	copy(buf[frameHdrLen:], f.payload)
	crc := crc32.ChecksumIEEE(buf[:frameHdrLen+len(f.payload)])
	binary.LittleEndian.PutUint32(buf[frameHdrLen+len(f.payload):], crc)
	_, err := w.Write(buf)
	return err
}

// readFrame reads and validates one frame. A clean EOF at a frame
// boundary returns io.EOF untouched (the peer closed between
// requests); a short read inside a frame is a torn frame.
func readFrame(r io.Reader) (frame, error) {
	hdr := make([]byte, frameHdrLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return frame{}, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return frame{}, fmt.Errorf("%w: stream ended inside header", ErrTornFrame)
		}
		return frame{}, err
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != frameMagic {
		return frame{}, ErrBadFrame
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != frameVersion {
		return frame{}, fmt.Errorf("%w: got version %d, want %d", ErrVersionSkew, v, frameVersion)
	}
	length := binary.LittleEndian.Uint32(hdr[16:])
	if length > MaxPayload {
		return frame{}, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, length)
	}
	body := make([]byte, int(length)+frameCRCLen)
	if _, err := io.ReadFull(r, body); err != nil {
		if err == io.EOF || errors.Is(err, io.ErrUnexpectedEOF) {
			return frame{}, fmt.Errorf("%w: stream ended inside payload", ErrTornFrame)
		}
		return frame{}, err
	}
	crc := crc32.ChecksumIEEE(hdr)
	crc = crc32.Update(crc, crc32.IEEETable, body[:length])
	if binary.LittleEndian.Uint32(body[length:]) != crc {
		return frame{}, ErrCRCMismatch
	}
	return frame{
		kind:    hdr[6],
		op:      hdr[7],
		seq:     binary.LittleEndian.Uint64(hdr[8:]),
		payload: body[:length:length],
	}, nil
}
