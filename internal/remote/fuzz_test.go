package remote

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
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
	f.Add(mutate(func(b []byte) { binary.LittleEndian.PutUint16(b[4:], 3) }))              // the last retired version
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

func FuzzDecodeApplyAck(f *testing.F) {
	full := encodeApplyAck(ApplyAck{Applied: 2})
	f.Add(full)
	f.Add(encodeApplyAck(ApplyAck{}))
	// The retired version-4 shape: pending, applied, folds and folded.
	// Never seen in a version-5 frame; trailing bytes are ignored like
	// any decoder's.
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0, 0, 0})
	f.Add(full[:len(full)-3])
	f.Add([]byte{})
	f.Add(full[:4])
	f.Fuzz(func(t *testing.T, p []byte) {
		if _, err := decodeApplyAck(p); err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if len(p) < 8 {
			t.Fatalf("decoded the applied count out of %d bytes", len(p))
		}
	})
}

func FuzzDecodeViewMultiChunk(f *testing.F) {
	full := encodeViewMultiChunk(viewMultiChunk{Index: 1, Total: 4, Offset: 2, Scores: []float64{0.25, 0.5}})
	f.Add(full)
	f.Add(encodeViewMultiChunk(viewMultiChunk{Total: 1_000_000, Scores: []float64{1}})) // oversize total: the client's bound, not the decoder's
	f.Add(full[:12])                                                                    // header only
	f.Add(full[:len(full)-2])                                                           // torn inside the scores
	f.Add([]byte{})
	f.Add(append(append([]byte(nil), full[:12]...), 0xff, 0xff, 0xff, 0xff)) // 4G scores claimed
	f.Fuzz(func(t *testing.T, p []byte) {
		c, err := decodeViewMultiChunk(p)
		if err != nil {
			if !errors.Is(err, ErrProtocol) {
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if 12+4+8*len(c.Scores) > len(p) {
			t.Fatalf("decoded %d scores out of %d bytes", len(c.Scores), len(p))
		}
	})
}
