package remote

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"slices"

	"repro/internal/cf"
	"repro/internal/dataset"
)

// Payload encoding: flat little-endian fields appended onto a byte
// slice, decoded by a cursor that fails loudly on truncation. The hot
// message, a multi-user view reply, is raw float64 arrays — no per-call
// reflection, no schema — and the cold, shape-heavy stats reply rides
// as JSON inside its frame, where the wire cost is irrelevant.

type wireWriter struct{ b []byte }

func (w *wireWriter) u32(v uint32)  { w.b = binary.LittleEndian.AppendUint32(w.b, v) }
func (w *wireWriter) u64(v uint64)  { w.b = binary.LittleEndian.AppendUint64(w.b, v) }
func (w *wireWriter) i64(v int64)   { w.u64(uint64(v)) }
func (w *wireWriter) f64(v float64) { w.u64(math.Float64bits(v)) }
func (w *wireWriter) bytes(p []byte) {
	w.u32(uint32(len(p)))
	w.b = append(w.b, p...)
}
func (w *wireWriter) f64s(vs []float64) {
	w.u32(uint32(len(vs)))
	off := len(w.b)
	w.b = slices.Grow(w.b, 8*len(vs))[:off+8*len(vs)]
	for i, v := range vs {
		binary.LittleEndian.PutUint64(w.b[off+8*i:], math.Float64bits(v))
	}
}

// errShortPayload marks a payload shorter than its own fields claim —
// a peer encoding bug, surfaced as a protocol violation.
var errShortPayload = fmt.Errorf("%w: short payload", ErrProtocol)

type wireReader struct {
	b   []byte
	off int
	err error
}

func (r *wireReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.off+n > len(r.b) {
		r.err = errShortPayload
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}
func (r *wireReader) u32() uint32 {
	p := r.take(4)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(p)
}
func (r *wireReader) u64() uint64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(p)
}
func (r *wireReader) i64() int64   { return int64(r.u64()) }
func (r *wireReader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *wireReader) bytes() []byte {
	n := int(r.u32())
	if r.err != nil || n > len(r.b)-r.off {
		if r.err == nil {
			r.err = errShortPayload
		}
		return nil
	}
	return r.take(n)
}
func (r *wireReader) f64s() []float64 {
	n := int(r.u32())
	p := r.take(8 * n)
	if r.err != nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
	}
	return out
}

// hello carries the router's world identity; the worker refuses a
// connection whose fingerprint or shard count disagrees with its own
// (ErrConfigMismatch) — two processes built from different worlds
// cannot serve bit-identical bytes, so the seam fails closed.
type hello struct {
	Fingerprint uint64
	Shards      uint32
}

func encodeHello(h hello) []byte {
	var w wireWriter
	w.u64(h.Fingerprint)
	w.u32(h.Shards)
	return w.b
}

func decodeHello(p []byte) (hello, error) {
	r := wireReader{b: p}
	h := hello{Fingerprint: r.u64(), Shards: r.u32()}
	return h, r.err
}

// encodeHelloAck carries the worker's owned shards and its protocol
// version; the router refuses a worker advertising any version but its
// own (ErrVersionSkew).
func encodeHelloAck(owned []int, version uint16) []byte {
	var w wireWriter
	w.u32(uint32(len(owned)))
	for _, s := range owned {
		w.u32(uint32(s))
	}
	w.u32(uint32(version))
	return w.b
}

func decodeHelloAck(p []byte) ([]int, uint16, error) {
	r := wireReader{b: p}
	n := int(r.u32())
	if r.err != nil || n > (len(p)-4)/4 {
		return nil, 0, errShortPayload
	}
	owned := make([]int, n)
	for i := range owned {
		owned[i] = int(r.u32())
	}
	version := uint16(r.u32())
	return owned, version, r.err
}

// viewMultiReq asks for the views of every group member a worker owns
// in one round trip.
type viewMultiReq struct {
	Users []dataset.UserID
}

func encodeViewMultiReq(q viewMultiReq) []byte {
	var w wireWriter
	w.u32(uint32(len(q.Users)))
	for _, u := range q.Users {
		w.u64(uint64(u))
	}
	return w.b
}

func decodeViewMultiReq(p []byte) (viewMultiReq, error) {
	r := wireReader{b: p}
	n := int(r.u32())
	if r.err != nil || n > (len(p)-4)/8 {
		return viewMultiReq{}, errShortPayload
	}
	q := viewMultiReq{Users: make([]dataset.UserID, n)}
	for i := range q.Users {
		q.Users[i] = dataset.UserID(r.u64())
	}
	return q, r.err
}

// encodeVectors encodes a multi-user read's reply: the vector count,
// then one float64 vector per requested user, in request order. The
// payload is sized once.
func encodeVectors(vs [][]float64) []byte {
	n := 4
	for _, v := range vs {
		n += 4 + 8*len(v)
	}
	w := wireWriter{b: make([]byte, 0, n)}
	w.u32(uint32(len(vs)))
	for _, v := range vs {
		w.f64s(v)
	}
	return w.b
}

// decodeVectors decodes a multi-user read's reply, which must hold
// exactly rows vectors of exactly cols values each and nothing after
// them. Anything else is a protocol violation: a missing, extra or
// short vector would otherwise reach an assembly that indexes every
// position. A vector allocates only what the payload's bytes back.
func decodeVectors(p []byte, rows, cols int) ([][]float64, error) {
	r := wireReader{b: p}
	if n := r.u32(); r.err == nil && int(n) != rows {
		return nil, fmt.Errorf("%w: %d vectors for %d users", ErrProtocol, n, rows)
	}
	out := make([][]float64, rows)
	for i := range out {
		out[i] = r.f64s()
		if r.err == nil && len(out[i]) != cols {
			return nil, fmt.Errorf("%w: vector %d holds %d values, want %d", ErrProtocol, i, len(out[i]), cols)
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(p) {
		return nil, fmt.Errorf("%w: %d bytes after the last vector", ErrProtocol, len(p)-r.off)
	}
	return out, nil
}

// applyReq is one fanned-out rating stamped with the router's global
// apply sequence; its reply is an empty result frame. The sequence
// makes the write path idempotent — a redelivered apply (the router
// retrying after a lost reply) is recognized and answered without a
// second ingest — and lets a replica detect that it missed an earlier
// apply (a gap) and refuse to serve a diverged state.
type applyReq struct {
	Seq    uint64
	Rating dataset.Rating
}

func encodeApplyReq(q applyReq) []byte {
	var w wireWriter
	w.u64(q.Seq)
	w.u64(uint64(q.Rating.User))
	w.u64(uint64(q.Rating.Item))
	w.f64(q.Rating.Value)
	w.i64(q.Rating.Time)
	return w.b
}

func decodeApplyReq(p []byte) (applyReq, error) {
	r := wireReader{b: p}
	q := applyReq{
		Seq: r.u64(),
		Rating: dataset.Rating{
			User:  dataset.UserID(r.u64()),
			Item:  dataset.ItemID(r.u64()),
			Value: r.f64(),
			Time:  r.i64(),
		},
	}
	return q, r.err
}

// Stats is a worker's cache counters: its predictor's neighborhood
// cache, the one cache a worker keeps (it computes every view score it
// serves and keeps none). A worker answers the stats op with its own,
// which count exactly its owned shards' users; ShardSet.Stats sums them.
// JSON-encoded inside its frame: stats are cold-path and shape-heavy.
type Stats struct {
	// Neighborhoods counts the predictor's lazy user-neighborhood cache.
	Neighborhoods cf.CacheStats `json:"neighborhoods"`
}

func encodeStats(st Stats) ([]byte, error) { return json.Marshal(st) }

func decodeStats(p []byte) (Stats, error) {
	var st Stats
	if err := json.Unmarshal(p, &st); err != nil {
		return Stats{}, fmt.Errorf("%w: decoding stats: %v", ErrProtocol, err)
	}
	return st, nil
}

// Application-level error codes relayed in kindError frames. The
// client maps the dataset trio back onto the dataset sentinels, so a
// worker's refusal of a rating reads as the typed error its store
// returned: ShardSet.Apply fences the worker with it and, when the
// worker owns the rating's user, returns it as the owner's error, where
// errors.Is tells a refused apply from a lost one. The router folds
// every rating before it fans it out, so a refusal is a diverged
// replica, never an answer to an HTTP client.
const (
	codeUnknownUser = "unknown_user"
	codeUnknownItem = "unknown_item"
	codeBadRating   = "bad_rating"
	codeWrongShard  = "wrong_shard"
	codeMismatch    = "config_mismatch"
	codeReplicaGap  = "replica_gap"
	codeInternal    = "internal"
)

// AppError is an application-level failure relayed from a worker —
// the request was delivered and refused, as opposed to the transport
// sentinels where it never completed.
type AppError struct {
	Code string
	Msg  string
}

func (e *AppError) Error() string { return "remote: worker error " + e.Code + ": " + e.Msg }

func encodeAppError(code, msg string) []byte {
	var w wireWriter
	w.bytes([]byte(code))
	w.bytes([]byte(msg))
	return w.b
}

func decodeAppError(p []byte) error {
	r := wireReader{b: p}
	code := string(r.bytes())
	msg := string(r.bytes())
	if r.err != nil {
		return r.err
	}
	switch code {
	case codeUnknownUser:
		return fmt.Errorf("remote: %w: %s", dataset.ErrUnknownUser, msg)
	case codeUnknownItem:
		return fmt.Errorf("remote: %w: %s", dataset.ErrUnknownItem, msg)
	case codeBadRating:
		return fmt.Errorf("remote: %w: %s", dataset.ErrBadValue, msg)
	case codeMismatch:
		return fmt.Errorf("%w: %s", ErrConfigMismatch, msg)
	case codeReplicaGap:
		return fmt.Errorf("%w: %s", ErrReplicaGap, msg)
	default:
		return &AppError{Code: code, Msg: msg}
	}
}
