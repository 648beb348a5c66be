package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/shard"
)

// The decoders below face the network: whatever bytes arrive, they must
// answer success or a typed sentinel — never panic — and never allocate
// past what the payload itself could hold (element counts are claims
// until checked against the bytes that follow them). Seeds are the
// torn / corrupt / oversize shapes the edge tests pin.

// fuzzFrame renders a valid frame for the seed corpora.
func fuzzFrame(f frame) []byte {
	var buf bytes.Buffer
	if err := writeFrame(&buf, f); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

func FuzzReadFrame(f *testing.F) {
	valid := fuzzFrame(frame{kind: kindRequest, op: opViewMulti, seq: 9, payload: []byte("payload")})
	f.Add(valid)
	f.Add(fuzzFrame(frame{kind: kindHello, seq: 1, payload: encodeHello(hello{Fingerprint: 0xdeadbeef, Shards: 4})}))
	f.Add([]byte{})
	f.Add(valid[:frameHdrLen-1]) // torn inside the header
	f.Add(valid[:frameHdrLen+3]) // torn inside the payload
	f.Add(valid[:len(valid)-1])  // torn inside the CRC
	mutate := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), valid...)
		fn(b)
		return b
	}
	f.Add(mutate(func(b []byte) { b[0] ^= 0xff }))                                         // bad magic
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[4:], 2) }))              // retired version
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[4:], 6) }))              // the last retired version
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[4:], frameVersion+1) })) // future version
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint32(b[16:], MaxPayload+1) }))  // oversize claim
	f.Add(mutate(func(b []byte) { b[frameHdrLen] ^= 0x01 }))                               // payload bit flip
	f.Add(mutate(func(b []byte) { b[len(b)-1] ^= 0x01 }))                                  // CRC bit flip

	sentinels := []error{io.EOF, ErrTornFrame, ErrBadFrame, ErrVersionSkew, ErrFrameTooLarge, ErrCRCMismatch}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := readFrame(bytes.NewReader(data))
		if err != nil {
			for _, s := range sentinels {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("untyped error %v", err)
		}
		if len(fr.payload) > MaxPayload || frameHdrLen+len(fr.payload)+frameCRCLen > len(data) {
			t.Fatalf("decoded a %d-byte payload out of %d input bytes", len(fr.payload), len(data))
		}
		// What decoded must re-encode to the bytes it was read from.
		if again := fuzzFrame(fr); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("frame does not round-trip")
		}
	})
}

func FuzzDecodeHelloAck(f *testing.F) {
	full := encodeHelloAck([]int{0, 2, 5}, frameVersion)
	f.Add(full)
	f.Add(full[:len(full)-4]) // the retired version-2 shape: no version
	f.Add(full[:5])
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}) // 4G owned shards claimed, none present
	f.Fuzz(func(t *testing.T, p []byte) {
		owned, _, err := decodeHelloAck(p)
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if 4+4*len(owned)+4 > len(p) {
			t.Fatalf("decoded %d owned shards out of %d bytes", len(owned), len(p))
		}
	})
}

func FuzzDecodeVectors(f *testing.F) {
	full := encodeVectors([][]float64{{0.25, 0.5, 1}, {2, 4, 8}})
	f.Add(full, uint8(2), uint8(3))
	f.Add(full, uint8(1), uint8(3))                                         // one vector too many
	f.Add(full, uint8(3), uint8(3))                                         // one vector too few
	f.Add(full, uint8(2), uint8(2))                                         // every vector too long
	f.Add(encodeVectors([][]float64{{1, 2, 3}, {4}}), uint8(2), uint8(3))   // one short vector
	f.Add(append(append([]byte(nil), full...), 0), uint8(2), uint8(3))      // a trailing byte
	f.Add(full[:len(full)-2], uint8(2), uint8(3))                           // torn inside the scores
	f.Add([]byte{}, uint8(1), uint8(0))                                     // no count
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, uint8(1), uint8(255)) // 4G scores claimed
	f.Fuzz(func(t *testing.T, p []byte, rows, cols uint8) {
		vs, err := decodeVectors(p, int(rows), int(cols))
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if len(vs) != int(rows) {
			t.Fatalf("decoded %d vectors, want %d", len(vs), rows)
		}
		for i, v := range vs {
			if len(v) != int(cols) {
				t.Fatalf("vector %d holds %d values, want %d", i, len(v), cols)
			}
		}
		// Exactly the bytes the shape needs, so nothing was allocated
		// that the payload did not back.
		if want := 4 + int(rows)*(4+8*int(cols)); len(p) != want {
			t.Fatalf("decoded a %dx%d reply out of %d bytes, want %d", rows, cols, len(p), want)
		}
		if !bytes.Equal(encodeVectors(vs), p) {
			t.Fatalf("reply does not round-trip")
		}
	})
}

// FuzzServerDispatch feeds arbitrary (op, seq, payload) requests
// through a worker's request handling, each delivered twice the way a
// router's retry redelivers it, on a server over the fake backend
// whose store refuses what a real one refuses and whose apply sequence
// already stands at 1. Every reply must be a result or an error frame
// echoing the request's seq and op; an error must carry a known code;
// a result must hold what its op promises; and no apply sequence is
// ingested twice.
func FuzzServerDispatch(f *testing.F) {
	const viewLen = 4
	primed := dataset.Rating{User: 1, Item: 1, Value: 3, Time: 1}
	users := []dataset.UserID{1, 2, 3, 4, 5}
	var owned []dataset.UserID // the users the worker's shard 0 holds
	sm, _ := shard.New(2)
	for _, u := range users {
		if sm.Of(int64(u)) == 0 {
			owned = append(owned, u)
		}
	}
	if len(owned) == 0 || len(owned) == len(users) {
		f.Fatalf("users %v split %v onto shard 0, want some on each shard", users, owned)
	}
	f.Add(opViewMulti, uint64(1), encodeViewMultiReq(viewMultiReq{Users: owned}))
	f.Add(opViewMulti, uint64(1), encodeViewMultiReq(viewMultiReq{Users: users}))                                    // some on shard 1
	f.Add(opViewMulti, uint64(2), encodeViewMultiReq(viewMultiReq{}))                                                // empty
	f.Add(opApply, uint64(3), encodeApplyReq(applyReq{Seq: 2, Rating: dataset.Rating{User: 2, Item: 1, Value: 4}}))  // next
	f.Add(opApply, uint64(4), encodeApplyReq(applyReq{Seq: 1, Rating: primed}))                                      // redelivery
	f.Add(opApply, uint64(5), encodeApplyReq(applyReq{Seq: 5, Rating: dataset.Rating{User: 2, Item: 1, Value: 4}}))  // gap
	f.Add(opApply, uint64(6), encodeApplyReq(applyReq{Seq: 2, Rating: dataset.Rating{User: 99, Item: 1, Value: 4}})) // unknown user
	f.Add(opApply, uint64(7), encodeApplyReq(applyReq{Seq: 2, Rating: dataset.Rating{User: 2, Item: 1, Value: 9}}))  // bad value
	f.Add(opStats, uint64(8), []byte{})
	for _, retired := range []uint8{1, 2, 4, 7} {
		f.Add(retired, uint64(retired), encodeViewMultiReq(viewMultiReq{Users: users[:1]}))
	}
	f.Add(uint8(0xff), uint64(0), []byte{0xff, 0xff, 0xff, 0xff})

	known := []string{codeUnknownUser, codeUnknownItem, codeBadRating, codeWrongShard, codeMismatch, codeReplicaGap, codeInternal}
	f.Fuzz(func(t *testing.T, op uint8, seq uint64, payload []byte) {
		store, err := dataset.FromRatings([]dataset.Rating{primed, {User: 2, Item: 2, Value: 5}})
		if err != nil {
			t.Fatal(err)
		}
		b := &fakeBackend{fp: 1, shards: 2, owned: []int{0}, store: store, viewLen: viewLen}
		s := NewServer(b)
		if reply := s.dispatch(frame{kind: kindRequest, op: opApply, payload: encodeApplyReq(applyReq{Seq: 1, Rating: primed})}); reply.kind != kindResult {
			t.Fatalf("priming apply answered kind %d", reply.kind)
		}
		for delivery := 0; delivery < 2; delivery++ {
			reply := s.dispatch(frame{kind: kindRequest, op: op, seq: seq, payload: payload})
			if reply.seq != seq || reply.op != op {
				t.Fatalf("reply seq %d op %d to request seq %d op %d", reply.seq, reply.op, seq, op)
			}
			switch reply.kind {
			case kindError:
				r := wireReader{b: reply.payload}
				code := string(r.bytes())
				r.bytes()
				if r.err != nil || r.off != len(reply.payload) {
					t.Fatalf("error payload does not decode: %x", reply.payload)
				}
				if !slices.Contains(known, code) {
					t.Fatalf("error code %q is not a known code", code)
				}
			case kindResult:
				switch op {
				case opViewMulti:
					q, _ := decodeViewMultiReq(payload)
					if _, err := decodeVectors(reply.payload, len(q.Users), viewLen); err != nil {
						t.Fatalf("view reply for %d users: %v", len(q.Users), err)
					}
				case opApply:
					if len(reply.payload) != 0 {
						t.Fatalf("apply result carries %d bytes", len(reply.payload))
					}
				case opStats:
					if _, err := decodeStats(reply.payload); err != nil {
						t.Fatalf("stats reply: %v", err)
					}
				default:
					t.Fatalf("op %d answered a result", op)
				}
			default:
				t.Fatalf("reply kind %d", reply.kind)
			}
		}
		// The primed rating, plus at most the one this request's apply
		// sequence names, however often it is delivered.
		if n := len(b.applied); n > 2 {
			t.Fatalf("%d ratings ingested from one apply sequence delivered twice: %v", n, b.applied)
		}
	})
}
