package remote

import (
	"errors"
	"fmt"
	"net"
	"sync"

	"repro/internal/dataset"
	"repro/internal/shard"
)

// Backend is the world a greca-shard worker serves: the data plane of
// its owned shards' users over its full replica of the rating store.
// Values must be bit-identical to what the router's own world would
// compute — the worker and router are built from the same
// configuration, which the hello fingerprint enforces — so moving a
// shard out of process never changes a served byte. All methods must
// be safe for concurrent use.
type Backend interface {
	// Fingerprint identifies the world configuration (the persistence
	// layer's config fingerprint); hello refuses mismatches.
	Fingerprint() uint64
	// Shards is the world's total shard count; Owned lists the shards
	// this worker serves (requests for other shards are refused).
	Shards() int
	Owned() []int
	// ViewScores returns u's pool-order normalized preference scores —
	// the dense side of the sorted-list view; the router reconstructs
	// the canonical sorted side locally (the sort is deterministic given
	// the scores).
	ViewScores(u dataset.UserID) ([]float64, error)
	// Apply ingests one rating into the worker's replica — the same
	// apply and neighborhood repair a router's AddRating runs. Rejections
	// unwrap to the dataset sentinels.
	Apply(r dataset.Rating) error
	// Stats reports the worker's neighborhood-cache totals.
	Stats() Stats
}

// Server serves the shard data plane over a listener. Each connection
// has one goroutine, which answers its requests one at a time and in
// order, each with exactly one frame echoing the request's sequence
// number and op. A router runs concurrent calls on separate
// connections, so a slow read never blocks the apply stream.
type Server struct {
	b Backend

	mu     sync.Mutex
	lis    net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup

	owned map[int]bool
	sm    shardOf

	// Apply-sequence state: ShardSet.Apply stamps every fanned-out
	// rating with a contiguous global sequence. applyMu also serializes the
	// backend Apply itself, so a redelivered duplicate can never race
	// its original.
	applyMu   sync.Mutex
	applySeq  uint64         // highest contiguously applied sequence
	lastApply dataset.Rating // rating applied at applySeq
}

// shardOf is the minimal routing the server needs: shard-of-user under
// the canonical hash map over the backend's shard count.
type shardOf func(u dataset.UserID) int

// NewServer builds a server over b. Routing uses the canonical hash
// map over b.Shards(), matching the router and the in-process world.
func NewServer(b Backend) *Server {
	s := &Server{
		b:     b,
		conns: make(map[net.Conn]struct{}),
		owned: make(map[int]bool, len(b.Owned())),
	}
	for _, sh := range b.Owned() {
		s.owned[sh] = true
	}
	sm, err := shard.New(b.Shards())
	if err != nil {
		// A Backend wraps a built world, whose shard count is >= 1.
		panic("remote: backend " + err.Error())
	}
	s.sm = func(u dataset.UserID) int { return sm.Of(int64(u)) }
	return s
}

// Serve accepts connections on lis until Close. It always returns a
// non-nil error; after Close the error is net.ErrClosed.
func (s *Server) Serve(lis net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return net.ErrClosed
	}
	s.lis = lis
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return net.ErrClosed
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// Close stops accepting, severs every live connection, and waits for
// the per-connection goroutines to drain.
func (s *Server) Close() {
	s.mu.Lock()
	s.closed = true
	if s.lis != nil {
		s.lis.Close()
	}
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

func (s *Server) dropConn(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	s.wg.Done()
}

// serveConn drives one connection: a hello handshake, then a loop
// that reads a request, dispatches it and writes its reply. Any framing
// error tears the connection down; the client re-dials and
// re-handshakes.
func (s *Server) serveConn(conn net.Conn) {
	defer s.dropConn(conn)
	f, err := readFrame(conn)
	if err != nil || f.kind != kindHello {
		return
	}
	h, err := decodeHello(f.payload)
	if err != nil {
		return
	}
	if h.Fingerprint != s.b.Fingerprint() || int(h.Shards) != s.b.Shards() {
		_ = writeFrame(conn, frame{kind: kindError, seq: f.seq, payload: encodeAppError(codeMismatch,
			fmt.Sprintf("worker world (fp %x, %d shards) does not match router (fp %x, %d shards)",
				s.b.Fingerprint(), s.b.Shards(), h.Fingerprint, h.Shards))})
		return
	}
	if err := writeFrame(conn, frame{kind: kindHelloAck, seq: f.seq, payload: encodeHelloAck(s.b.Owned(), frameVersion)}); err != nil {
		return
	}
	for {
		f, err := readFrame(conn)
		if err != nil || f.kind != kindRequest {
			return // clean EOF, torn stream or a stray frame: the conn is done
		}
		if err := writeFrame(conn, s.dispatch(f)); err != nil {
			return
		}
	}
}

// dispatch answers one request frame with one frame: a result, or a
// kindError frame for an application failure, which keeps the
// connection.
func (s *Server) dispatch(f frame) frame {
	fail := func(code, msg string) frame {
		return frame{kind: kindError, op: f.op, seq: f.seq, payload: encodeAppError(code, msg)}
	}
	result := func(payload []byte) frame {
		// A reply past the frame bound is refused here, not dropped by
		// writeFrame: the caller gets an answer instead of waiting out
		// its deadline.
		if len(payload) > MaxPayload {
			return fail(codeInternal, fmt.Sprintf("%s reply of %d bytes exceeds the %d-byte frame bound", opName(f.op), len(payload), MaxPayload))
		}
		return frame{kind: kindResult, op: f.op, seq: f.seq, payload: payload}
	}
	switch f.op {
	case opViewMulti:
		q, err := decodeViewMultiReq(f.payload)
		if err != nil {
			return fail(codeInternal, err.Error())
		}
		if len(q.Users) == 0 {
			return fail(codeInternal, fmt.Sprintf("empty %s request", opName(f.op)))
		}
		for _, u := range q.Users {
			if !s.owned[s.sm(u)] {
				return fail(codeWrongShard, fmt.Sprintf("user %d is on shard %d, not owned here", u, s.sm(u)))
			}
		}
		vs := make([][]float64, len(q.Users))
		for i, u := range q.Users {
			v, err := s.b.ViewScores(u)
			if err != nil {
				return fail(codeInternal, err.Error())
			}
			vs[i] = v
		}
		return result(encodeVectors(vs))
	case opApply:
		q, err := decodeApplyReq(f.payload)
		if err != nil {
			return fail(codeInternal, err.Error())
		}
		s.applyMu.Lock()
		switch {
		case q.Seq == s.applySeq && q.Seq > 0 && q.Rating == s.lastApply:
			// Redelivery of the last apply (the router retrying after a
			// lost reply): already ingested, answer it again.
			s.applyMu.Unlock()
			return result(nil)
		case q.Seq != s.applySeq+1:
			// A hole in the sequence (or a replay of something older
			// than the last apply): this replica missed a write and
			// must not ingest past the gap — the router fences it.
			seen := s.applySeq
			s.applyMu.Unlock()
			return fail(codeReplicaGap, fmt.Sprintf("apply seq %d after contiguous seq %d", q.Seq, seen))
		}
		err = s.b.Apply(q.Rating)
		if err == nil {
			s.applySeq = q.Seq
			s.lastApply = q.Rating
		}
		s.applyMu.Unlock()
		switch {
		case err == nil:
			return result(nil)
		case errors.Is(err, dataset.ErrUnknownUser):
			return fail(codeUnknownUser, err.Error())
		case errors.Is(err, dataset.ErrUnknownItem):
			return fail(codeUnknownItem, err.Error())
		case errors.Is(err, dataset.ErrBadValue):
			return fail(codeBadRating, err.Error())
		default:
			return fail(codeInternal, err.Error())
		}
	case opStats:
		payload, err := encodeStats(s.b.Stats())
		if err != nil {
			return fail(codeInternal, err.Error())
		}
		return result(payload)
	default:
		return fail(codeInternal, fmt.Sprintf("unknown op %d", f.op))
	}
}
