package remote

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/shard"
)

// fakeBackend is a deterministic in-memory Backend: view scores are a
// pure function of the user, so the loopback tests can assert exact
// values without a real world.
type fakeBackend struct {
	fp     uint64
	shards int
	owned  []int

	mu       sync.Mutex
	applied  []dataset.Rating
	applyErr error
	// store, when set, is where Apply folds what it records, so its
	// refusals are the real ones.
	store   *dataset.Store
	viewLen int
	delay   time.Duration
}

func (b *fakeBackend) Fingerprint() uint64 { return b.fp }
func (b *fakeBackend) Shards() int         { return b.shards }
func (b *fakeBackend) Owned() []int        { return b.owned }

// scoresFor is the fake's view of u: a pure function the tests
// recompute to check what crossed the wire.
func (b *fakeBackend) scoresFor(u dataset.UserID) []float64 {
	n := b.viewLen
	if n == 0 {
		n = 10
	}
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(u)*1000 + float64(i)
	}
	return scores
}

func (b *fakeBackend) ViewScores(u dataset.UserID) ([]float64, error) {
	if b.delay > 0 {
		time.Sleep(b.delay)
	}
	return b.scoresFor(u), nil
}

func (b *fakeBackend) Apply(r dataset.Rating) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.applyErr != nil {
		return b.applyErr
	}
	if b.store != nil {
		if err := b.store.Apply(r); err != nil {
			return err
		}
	}
	b.applied = append(b.applied, r)
	return nil
}

// Stats reports 100 + shard neighborhood hits and one cached
// neighborhood per owned shard.
func (b *fakeBackend) Stats() Stats {
	var st Stats
	for _, sh := range b.owned {
		st.Neighborhoods.Hits += uint64(100 + sh)
		st.Neighborhoods.Size++
	}
	return st
}

// startWorker serves b on a loopback listener, cleaned up with the
// test. Returns the worker address.
func startWorker(t *testing.T, b Backend) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(b)
	go srv.Serve(lis)
	t.Cleanup(srv.Close)
	return lis.Addr().String()
}

// testClientConfig keeps loopback tests fast: short deadlines,
// matching the fake world's identity.
func testClientConfig(b *fakeBackend) ClientConfig {
	return ClientConfig{
		CallTimeout: 500 * time.Millisecond,
		Fingerprint: b.fp,
		Shards:      b.shards,
	}
}

// allOwned builds a backend owning every shard of a 1-shard world, so
// any user routes to it.
func allOwned() *fakeBackend {
	return &fakeBackend{fp: 77, shards: 1, owned: []int{0}}
}

// TestClientViewScoresMulti: one batched call fetches several users'
// views, one vector per user in request order.
func TestClientViewScoresMulti(t *testing.T) {
	b := allOwned()
	b.viewLen = 10
	addr := startWorker(t, b)
	c := NewClient(addr, testClientConfig(b))
	defer c.Close()

	users := []dataset.UserID{5, 2, 8}
	res, err := c.ViewScoresMulti(users, b.viewLen)
	if err != nil {
		t.Fatalf("ViewScoresMulti: %v", err)
	}
	if len(res) != len(users) {
		t.Fatalf("got %d results for %d users", len(res), len(users))
	}
	for i, u := range users {
		if want := b.scoresFor(u); !reflect.DeepEqual(res[i], want) {
			t.Errorf("user %d scores = %v, want %v", u, res[i], want)
		}
	}
	// The whole 3-member fetch cost exactly one wire call.
	if got := c.counters.ops[opViewMulti].Load(); got != 1 {
		t.Errorf("view_multi calls = %d, want 1", got)
	}
	// A second call reuses the pooled connection (same answer).
	again, err := c.ViewScoresMulti(users, b.viewLen)
	if err != nil || !reflect.DeepEqual(again, res) {
		t.Errorf("pooled call: %v, %v", again, err)
	}
	if d := c.counters.dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1", d)
	}
}

// TestClientMultiWrongShard: a batched request naming even one user
// outside the worker's owned shards is refused whole, with the
// wrong_shard code — misrouting is loud, never silent.
func TestClientMultiWrongShard(t *testing.T) {
	b := &fakeBackend{fp: 9, shards: 4, owned: []int{1}}
	addr := startWorker(t, b)
	c := NewClient(addr, testClientConfig(b))
	defer c.Close()

	m, _ := shard.New(4)
	var inside, outside dataset.UserID
	for u, haveIn, haveOut := dataset.UserID(0), false, false; !haveIn || !haveOut; u++ {
		if m.Of(int64(u)) == 1 {
			if !haveIn {
				inside, haveIn = u, true
			}
		} else if !haveOut {
			outside, haveOut = u, true
		}
	}
	var ae *AppError
	if _, err := c.ViewScoresMulti([]dataset.UserID{inside, outside}, 10); !errors.As(err, &ae) || ae.Code != codeWrongShard {
		t.Errorf("ViewScoresMulti: err = %v, want wrong_shard", err)
	}
}

// TestShardSetMultiBatchesByWorker pins the RPC collapse the batched
// ops exist for: a group assembly's reads cost one wire call per owning
// worker, never one per member.
func TestShardSetMultiBatchesByWorker(t *testing.T) {
	set, _, _ := twoWorkerSet(t)
	m, _ := shard.New(2)
	// 3 members on shard 0 and 2 on shard 1, interleaved in request
	// order, so the gather has to scatter results back across buckets.
	var users []dataset.UserID
	want0, want1 := 3, 2
	for u := dataset.UserID(0); want0 > 0 || want1 > 0; u++ {
		switch m.Of(int64(u)) {
		case 0:
			if want0 > 0 {
				users = append(users, u)
				want0--
			}
		case 1:
			if want1 > 0 {
				users = append(users, u)
				want1--
			}
		}
	}

	res, err := set.ViewScoresMulti(users, 10)
	if err != nil {
		t.Fatalf("ViewScoresMulti: %v", err)
	}
	for i, u := range users {
		if len(res[i]) != 10 || res[i][0] != float64(u)*1000 {
			t.Errorf("user %d (slot %d): scores %v", u, i, res[i][:2])
		}
	}

	st := set.TransportStats()
	if st.CallsByOp["view_multi"] != 2 {
		t.Errorf("view_multi calls = %d, want 2 (one per worker, 5 members)", st.CallsByOp["view_multi"])
	}
	if len(st.CallsByOp) != 2 {
		t.Errorf("calls_by_op = %v, want exactly the 2 data-plane ops (no stats, no retired view, invalidate or predict)", st.CallsByOp)
	}
}

// TestClientApplyInvalidateStats: the cold-path ops over one client —
// an apply reaches the replica, the retired ops (the single-user reads
// 1 and 2, the per-user invalidate 4 nothing called, and the dense-row
// read 7 a router now answers itself) are refused, not served, and
// stats come back as the worker's totals.
func TestClientApplyInvalidateStats(t *testing.T) {
	b := allOwned()
	addr := startWorker(t, b)
	c := NewClient(addr, testClientConfig(b))
	defer c.Close()

	if err := c.Apply(1, dataset.Rating{User: 1, Item: 2, Value: 3, Time: 4}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(b.applied) != 1 || b.applied[0].Item != 2 {
		t.Errorf("backend applied %v", b.applied)
	}

	// Each payload is one the op accepted while it was live: a user id,
	// or one user and one item for the dense-row read.
	for op, payload := range map[uint8][]byte{
		1: {2, 0, 0, 0, 0, 0, 0, 0},
		2: {2, 0, 0, 0, 0, 0, 0, 0},
		4: {2, 0, 0, 0, 0, 0, 0, 0},
		7: encodeViewMultiReq(viewMultiReq{Users: []dataset.UserID{2}}),
	} {
		var ae *AppError
		if _, err := c.call(op, payload); !errors.As(err, &ae) || ae.Code != codeInternal {
			t.Errorf("retired op %d: err = %v, want an internal application error", op, err)
		}
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st != b.Stats() {
		t.Errorf("stats = %+v, want %+v", st, b.Stats())
	}
}

// TestClientApplyAppErrors: the dataset rejections survive the hop as
// the same sentinels the in-process ingest surface produces. The last
// case is a real refusal: an apply frame carries the value's raw
// float64 bits, so a NaN reaches the worker, whose store refuses it.
func TestClientApplyAppErrors(t *testing.T) {
	b := allOwned()
	addr := startWorker(t, b)
	c := NewClient(addr, testClientConfig(b))
	defer c.Close()
	store, err := dataset.FromRatings([]dataset.Rating{{User: 1, Item: 1, Value: 3}})
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		injected error
		value    float64
		want     error
	}{
		{fmt.Errorf("refused: %w", dataset.ErrUnknownUser), 1, dataset.ErrUnknownUser},
		{fmt.Errorf("refused: %w", dataset.ErrUnknownItem), 1, dataset.ErrUnknownItem},
		{fmt.Errorf("refused: %w", dataset.ErrBadValue), 1, dataset.ErrBadValue},
		{nil, math.NaN(), dataset.ErrBadValue},
	} {
		b.mu.Lock()
		b.applyErr = tc.injected
		b.store = store
		b.mu.Unlock()
		// A refused apply never advances the worker's sequence, so every
		// attempt is the "next" apply at seq 1.
		if err := c.Apply(1, dataset.Rating{User: 1, Item: 1, Value: tc.value}); !errors.Is(err, tc.want) {
			t.Errorf("value %v: err = %v, want %v", tc.value, err, tc.want)
		}
	}
	if n := store.NumRatings(); n != 1 {
		t.Errorf("the worker's store holds %d ratings after refusals, want 1", n)
	}
}

// TestHandshakeConfigMismatch: a router built from a different world
// (fingerprint or shard count) is refused at the handshake.
func TestHandshakeConfigMismatch(t *testing.T) {
	b := allOwned()
	addr := startWorker(t, b)

	cfg := testClientConfig(b)
	cfg.Fingerprint = b.fp + 1
	c := NewClient(addr, cfg)
	defer c.Close()
	if err := c.Ping(); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("fingerprint skew: err = %v, want ErrConfigMismatch", err)
	}

	cfg = testClientConfig(b)
	cfg.Shards = b.shards + 1
	c2 := NewClient(addr, cfg)
	defer c2.Close()
	if err := c2.Ping(); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("shard-count skew: err = %v, want ErrConfigMismatch", err)
	}
}

// TestHandshakeOwnsMismatch: a worker deployed with the wrong -owns
// (its helloAck disagrees with the topology's assignment) is refused
// at the boot handshake — not discovered request by request as
// wrong_shard errors.
func TestHandshakeOwnsMismatch(t *testing.T) {
	b := &fakeBackend{fp: 5, shards: 2, owned: []int{0}}
	addr := startWorker(t, b)
	top, err := ParseTopology([]byte(fmt.Sprintf(
		`{"shards": 2, "workers": [{"addr": %q, "owns": [0, 1]}]}`, addr)))
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewShardSet(top, ClientConfig{CallTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(set.Close)
	if err := set.Handshake(5, 2); !errors.Is(err, ErrConfigMismatch) {
		t.Errorf("Handshake: err = %v, want ErrConfigMismatch", err)
	}
}

// TestClientDeadWorker: nothing listening → ErrShardUnavailable after
// the bounded retries.
func TestClientDeadWorker(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	lis.Close() // the port is now dead

	b := allOwned()
	cfg := testClientConfig(b)
	cfg.DialTimeout = 200 * time.Millisecond
	c := NewClient(addr, cfg)
	defer c.Close()
	if _, err := c.ViewScoresMulti([]dataset.UserID{1}, 10); !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("err = %v, want ErrShardUnavailable", err)
	}
}

// TestClientTimeout: a worker that stalls past the call deadline while
// staying connected → ErrShardTimeout, not unavailable.
func TestClientTimeout(t *testing.T) {
	b := allOwned()
	b.delay = 300 * time.Millisecond
	addr := startWorker(t, b)
	cfg := testClientConfig(b)
	cfg.CallTimeout = 50 * time.Millisecond
	c := NewClient(addr, cfg)
	defer c.Close()
	if _, err := c.ViewScoresMulti([]dataset.UserID{1}, 10); !errors.Is(err, ErrShardTimeout) {
		t.Errorf("err = %v, want ErrShardTimeout", err)
	}
}

// rawWorker accepts connections, answers the handshake, then hands the
// connection to serve for scripted misbehavior.
func rawWorker(t *testing.T, serve func(conn net.Conn, req frame)) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				f, err := readFrame(conn)
				if err != nil || f.kind != kindHello {
					return
				}
				if err := writeFrame(conn, frame{kind: kindHelloAck, seq: f.seq, payload: encodeHelloAck([]int{0}, frameVersion)}); err != nil {
					return
				}
				req, err := readFrame(conn)
				if err != nil {
					return
				}
				serve(conn, req)
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// TestClientDisconnectMidFrame: a worker that dies partway through
// writing its reply frame surfaces as ErrShardUnavailable — a half
// reply is never returned.
func TestClientDisconnectMidFrame(t *testing.T) {
	addr := rawWorker(t, func(conn net.Conn, req frame) {
		var buf bytes.Buffer
		_ = writeFrame(&buf, frame{kind: kindResult, op: req.op, seq: req.seq, payload: encodeVectors([][]float64{{1, 2, 3}})})
		_, _ = conn.Write(buf.Bytes()[:buf.Len()/2])
		// Die inside the frame: the client sees a torn stream.
	})
	c := NewClient(addr, ClientConfig{CallTimeout: 500 * time.Millisecond, Shards: 1})
	defer c.Close()
	if _, err := c.ViewScoresMulti([]dataset.UserID{1}, 3); !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("err = %v, want ErrShardUnavailable", err)
	}
}

// TestClientRejectsMisshapenViewReplies: a view reply must hold
// exactly one vector per requested user, each exactly as long as the
// pool. Too few vectors, too many, or one of the wrong length is a
// protocol violation — never a zero-filled or short view handed to an
// assembly that indexes every pool position.
func TestClientRejectsMisshapenViewReplies(t *testing.T) {
	replies := map[string][][]float64{
		"too few vectors":  {{1, 2, 3}},
		"too many vectors": {{1, 2, 3}, {4, 5, 6}, {7, 8, 9}},
		"short vector":     {{1, 2, 3}, {4}},
		"long vector":      {{1, 2, 3, 4}, {5, 6, 7}},
	}
	for name, vs := range replies {
		t.Run(name, func(t *testing.T) {
			addr := rawWorker(t, func(conn net.Conn, req frame) {
				_ = writeFrame(conn, frame{kind: kindResult, op: req.op, seq: req.seq, payload: encodeVectors(vs)})
			})
			c := NewClient(addr, ClientConfig{CallTimeout: 500 * time.Millisecond, Shards: 1})
			defer c.Close()
			res, err := c.ViewScoresMulti([]dataset.UserID{1, 2}, 3)
			if !errors.Is(err, ErrProtocol) || res != nil {
				t.Errorf("got %v, %v; want nil, ErrProtocol", res, err)
			}
		})
	}
}

// TestServerOversizeReplyAnswersError: a reply too big for one frame is
// answered at once with an internal error naming its size — not left
// unanswered until the call's deadline kills the connection with every
// call riding it. The next call reuses the same connection.
func TestServerOversizeReplyAnswersError(t *testing.T) {
	b := bigViewBackend{allOwned()}
	addr := startWorker(t, b)
	cfg := testClientConfig(b.fakeBackend)
	cfg.CallTimeout = 3 * time.Second
	c := NewClient(addr, cfg)
	defer c.Close()

	start := time.Now()
	_, err := c.ViewScoresMulti([]dataset.UserID{bigViewUser}, MaxPayload/8+1)
	var ae *AppError
	if !errors.As(err, &ae) || ae.Code != codeInternal || !strings.Contains(ae.Msg, "bytes exceeds") {
		t.Fatalf("oversize view: err = %v, want an internal error naming the size", err)
	}
	if took := time.Since(start); took > cfg.CallTimeout/2 {
		t.Errorf("the refusal took %v, want well inside the %v deadline", took, cfg.CallTimeout)
	}
	if _, err := c.ViewScoresMulti([]dataset.UserID{2}, 10); err != nil {
		t.Fatalf("next call: %v", err)
	}
	if d := c.counters.dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1 (the refusal kept the connection)", d)
	}
}

// bigViewUser's view is one score longer than a frame can carry.
const bigViewUser = dataset.UserID(1)

type bigViewBackend struct{ *fakeBackend }

func (b bigViewBackend) ViewScores(u dataset.UserID) ([]float64, error) {
	if u == bigViewUser {
		return make([]float64, MaxPayload/8+1), nil
	}
	return b.fakeBackend.ViewScores(u)
}

// TestClientSeqMismatch: a response carrying the wrong sequence number
// is a protocol violation — never matched to the wrong request.
func TestClientSeqMismatch(t *testing.T) {
	addr := rawWorker(t, func(conn net.Conn, req frame) {
		_ = writeFrame(conn, frame{kind: kindResult, op: req.op, seq: req.seq + 99, payload: []byte("{}")})
	})
	c := NewClient(addr, ClientConfig{CallTimeout: 500 * time.Millisecond, Shards: 1})
	defer c.Close()
	if _, err := c.Stats(); !errors.Is(err, ErrProtocol) {
		t.Errorf("err = %v, want ErrProtocol", err)
	}
}

// TestClientRetriesIdempotentReads: a connection severed before any
// response retries on a fresh dial and succeeds — reads are
// idempotent. The first connection's request is dropped on the floor.
func TestClientRetriesIdempotentReads(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	addr := rawWorker(t, func(conn net.Conn, req frame) {
		mu.Lock()
		calls++
		first := calls == 1
		mu.Unlock()
		if first {
			return // die without answering; deferred Close tears the conn
		}
		_ = writeFrame(conn, frame{kind: kindResult, op: req.op, seq: req.seq, payload: encodeVectors([][]float64{{4, 2}})})
	})
	c := NewClient(addr, ClientConfig{CallTimeout: 500 * time.Millisecond, Shards: 1})
	defer c.Close()
	res, err := c.ViewScoresMulti([]dataset.UserID{1}, 2)
	if err != nil || len(res) != 1 || !reflect.DeepEqual(res[0], []float64{4, 2}) {
		t.Fatalf("retried read = %+v, %v; want scores [4 2], nil", res, err)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 2 {
		t.Errorf("worker saw %d requests, want 2 (one dropped, one retried)", calls)
	}
}

// TestClientApplyRetriesSameSeq: an apply whose connection is severed
// before the reply is redelivered on a fresh dial, byte-identical —
// same sequence, same rating — so the worker's dedup can make the
// redelivery idempotent.
func TestClientApplyRetriesSameSeq(t *testing.T) {
	var mu sync.Mutex
	var payloads [][]byte
	addr := rawWorker(t, func(conn net.Conn, req frame) {
		mu.Lock()
		payloads = append(payloads, append([]byte(nil), req.payload...))
		first := len(payloads) == 1
		mu.Unlock()
		if first {
			return // die without answering; deferred Close tears the conn
		}
		_ = writeFrame(conn, frame{kind: kindResult, op: req.op, seq: req.seq})
	})
	c := NewClient(addr, ClientConfig{CallTimeout: 500 * time.Millisecond, Shards: 1})
	defer c.Close()
	if err := c.Apply(42, dataset.Rating{User: 1, Item: 1, Value: 1}); err != nil {
		t.Fatalf("retried apply: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(payloads) != 2 {
		t.Fatalf("worker saw %d apply deliveries, want 2 (one dropped, one redelivered)", len(payloads))
	}
	q0, err0 := decodeApplyReq(payloads[0])
	q1, err1 := decodeApplyReq(payloads[1])
	if err0 != nil || err1 != nil || q0 != q1 || q0.Seq != 42 {
		t.Errorf("deliveries diverge: %+v (%v) vs %+v (%v)", q0, err0, q1, err1)
	}
}

// TestServerApplyDedupAndGap pins the worker-side sequence discipline:
// a redelivered apply succeeds without a second ingest, and a sequence
// hole answers replica_gap instead of ingesting past a missed write.
func TestServerApplyDedupAndGap(t *testing.T) {
	b := allOwned()
	addr := startWorker(t, b)
	c := NewClient(addr, testClientConfig(b))
	defer c.Close()

	r1 := dataset.Rating{User: 1, Item: 2, Value: 3, Time: 4}
	if err := c.Apply(1, r1); err != nil {
		t.Fatalf("Apply(1): %v", err)
	}
	// Redelivery of seq 1: success, no second ingest.
	if err := c.Apply(1, r1); err != nil {
		t.Fatalf("redelivered Apply(1): %v", err)
	}
	b.mu.Lock()
	n := len(b.applied)
	b.mu.Unlock()
	if n != 1 {
		t.Errorf("backend ingested %d ratings, want 1 (dedup)", n)
	}
	// Same seq, different rating: not a redelivery — a divergence.
	if err := c.Apply(1, dataset.Rating{User: 1, Item: 9, Value: 1}); !errors.Is(err, ErrReplicaGap) {
		t.Errorf("conflicting seq 1: err = %v, want ErrReplicaGap", err)
	}
	// Skipping seq 2 entirely: the replica missed a write.
	if err := c.Apply(3, dataset.Rating{User: 1, Item: 3, Value: 2}); !errors.Is(err, ErrReplicaGap) {
		t.Errorf("gap: err = %v, want ErrReplicaGap", err)
	}
	// The contiguous next sequence still applies.
	if err := c.Apply(2, dataset.Rating{User: 1, Item: 3, Value: 2}); err != nil {
		t.Errorf("Apply(2): %v", err)
	}
}

func TestParseTopology(t *testing.T) {
	good := []byte(`{"shards": 4, "workers": [
		{"addr": "a:1", "owns": [0, 2]},
		{"addr": "b:1", "owns": [1, 3]}]}`)
	top, err := ParseTopology(good)
	if err != nil {
		t.Fatalf("good topology: %v", err)
	}
	if top.Shards != 4 || len(top.Workers) != 2 {
		t.Errorf("topology = %+v", top)
	}

	bad := map[string][]byte{
		"not json":      []byte(`{`),
		"unknown field": []byte(`{"shards": 1, "workers": [{"addr": "a:1", "owns": [0]}], "extra": 1}`),
		"zero shards":   []byte(`{"shards": 0, "workers": [{"addr": "a:1", "owns": [0]}]}`),
		"no workers":    []byte(`{"shards": 1, "workers": []}`),
		"empty addr":    []byte(`{"shards": 1, "workers": [{"addr": "", "owns": [0]}]}`),
		"owns nothing":  []byte(`{"shards": 2, "workers": [{"addr": "a:1", "owns": [0]}, {"addr": "b:1", "owns": []}]}`),
		"out of range":  []byte(`{"shards": 2, "workers": [{"addr": "a:1", "owns": [0, 2]}]}`),
		"double owner":  []byte(`{"shards": 2, "workers": [{"addr": "a:1", "owns": [0, 1]}, {"addr": "b:1", "owns": [1]}]}`),
		"orphan shard":  []byte(`{"shards": 3, "workers": [{"addr": "a:1", "owns": [0, 1]}]}`),
	}
	for name, data := range bad {
		if _, err := ParseTopology(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestNewShardSetRefusesInvalidTopology: a topology built in code
// rather than parsed gets the same checks as ParseTopology's, as an
// error, never a panic.
func TestNewShardSetRefusesInvalidTopology(t *testing.T) {
	bad := map[string]Topology{
		"zero shards": {Shards: 0, Workers: []Worker{{Addr: "127.0.0.1:1"}}},
		"empty addr":  {Shards: 1, Workers: []Worker{{Addr: "", Owns: []int{0}}}},
	}
	for name, top := range bad {
		if set, err := NewShardSet(top, ClientConfig{}); err == nil {
			set.Close()
			t.Errorf("%s: accepted", name)
		}
	}
}

// twoWorkerSet builds a 2-shard world split across two loopback
// workers and a handshaken ShardSet over them.
func twoWorkerSet(t *testing.T) (*ShardSet, *fakeBackend, *fakeBackend) {
	t.Helper()
	b0 := &fakeBackend{fp: 5, shards: 2, owned: []int{0}}
	b1 := &fakeBackend{fp: 5, shards: 2, owned: []int{1}}
	a0 := startWorker(t, b0)
	a1 := startWorker(t, b1)
	top, err := ParseTopology([]byte(fmt.Sprintf(
		`{"shards": 2, "workers": [{"addr": %q, "owns": [0]}, {"addr": %q, "owns": [1]}]}`, a0, a1)))
	if err != nil {
		t.Fatal(err)
	}
	set, err := NewShardSet(top, ClientConfig{CallTimeout: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(set.Close)
	if err := set.Handshake(5, 2); err != nil {
		t.Fatalf("Handshake: %v", err)
	}
	return set, b0, b1
}

// userOnShard finds a user routed to shard sh under the canonical
// 2-way map.
func userOnShard(sh int) dataset.UserID {
	m, _ := shard.New(2)
	for u := dataset.UserID(0); ; u++ {
		if m.Of(int64(u)) == sh {
			return u
		}
	}
}

// TestShardSetRoutesByShard: each user's data-plane reads land on the
// worker owning its shard.
func TestShardSetRoutesByShard(t *testing.T) {
	set, _, _ := twoWorkerSet(t)
	for sh := 0; sh < 2; sh++ {
		u := userOnShard(sh)
		res, err := set.ViewScoresMulti([]dataset.UserID{u}, 10)
		if err != nil {
			t.Fatalf("shard %d: ViewScoresMulti(%d): %v", sh, u, err)
		}
		if scores := res[0]; len(scores) != 10 || scores[0] != float64(u)*1000 {
			t.Errorf("shard %d: scores %v", sh, scores[:2])
		}
	}
}

// TestShardSetApplyFansOutToAllWorkers: every replica ingests every
// rating (neighborhoods cross shards).
func TestShardSetApplyFansOutToAllWorkers(t *testing.T) {
	set, b0, b1 := twoWorkerSet(t)
	u := userOnShard(1)
	if err := set.Apply(dataset.Rating{User: u, Item: 7, Value: 4, Time: 1}); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	for i, b := range []*fakeBackend{b0, b1} {
		b.mu.Lock()
		n := len(b.applied)
		b.mu.Unlock()
		if n != 1 {
			t.Errorf("worker %d ingested %d ratings, want 1", i, n)
		}
	}
	if fenced := fencedAddrs(set); len(fenced) != 0 {
		t.Errorf("fenced workers = %v after a fully delivered apply", fenced)
	}
}

// TestShardSetStatsSumsWorkers: the set's stats are the sum of both
// workers' totals, and a nil set's are zero.
func TestShardSetStatsSumsWorkers(t *testing.T) {
	set, _, _ := twoWorkerSet(t)
	st, err := set.Stats()
	if err != nil {
		t.Fatalf("Stats: %v", err)
	}
	if st.Neighborhoods.Hits != 100+101 || st.Neighborhoods.Size != 2 {
		t.Errorf("stats = %+v, want 201 neighborhood hits, 2 neighborhoods", st)
	}
	var none *ShardSet
	if st, err := none.Stats(); err != nil || st != (Stats{}) {
		t.Errorf("nil set stats = %+v, %v; want zero", st, err)
	}
}

// fencedAddrs lists the addresses of the set's quarantined workers.
func fencedAddrs(set *ShardSet) []string {
	var out []string
	for _, cl := range set.clients {
		if cl.Fenced() {
			out = append(out, cl.Addr())
		}
	}
	return out
}

// killWorker severs a worker client's pool and redirects it to a dead
// port, simulating a SIGKILLed process under static membership.
func killWorker(t *testing.T, set *ShardSet, sh int) {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := lis.Addr().String()
	lis.Close()
	cl := set.owner[sh]
	cl.Close()
	cl.mu.Lock()
	cl.closed = false
	cl.addr = dead
	cl.cfg.DialTimeout = 100 * time.Millisecond
	cl.mu.Unlock()
}

// TestShardSetDeadWorkerDegradesOnlyItsShards: after one worker dies,
// its shards answer ErrShardUnavailable while the other keeps serving;
// stats sum the survivor alone; an ingest for a user the
// dead worker owns fails, one owned by the live worker proceeds with a
// counted fanout miss.
func TestShardSetDeadWorkerDegradesOnlyItsShards(t *testing.T) {
	set, _, b1 := twoWorkerSet(t)
	killWorker(t, set, 0)

	if _, err := set.ViewScoresMulti([]dataset.UserID{userOnShard(0)}, 10); !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("dead shard read: err = %v, want ErrShardUnavailable", err)
	}
	if _, err := set.ViewScoresMulti([]dataset.UserID{userOnShard(1)}, 10); err != nil {
		t.Errorf("live shard read: %v", err)
	}

	st, err := set.Stats()
	if err == nil {
		t.Error("Stats reported no error with a dead worker")
	}
	if st.Neighborhoods.Hits != 101 || st.Neighborhoods.Size != 1 {
		t.Errorf("stats = %+v, want the live worker's alone", st)
	}

	if err := set.Apply(dataset.Rating{User: userOnShard(0), Item: 1, Value: 1}); !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("ingest for dead owner: err = %v, want ErrShardUnavailable", err)
	}
	if err := set.Apply(dataset.Rating{User: userOnShard(1), Item: 1, Value: 1, Time: 1}); err != nil {
		t.Errorf("ingest for live owner: %v", err)
	}
	// The dead worker missed a write: it must be fenced, so even if
	// the process came back on that address it could not serve a
	// diverged replica.
	if fenced := fencedAddrs(set); len(fenced) != 1 {
		t.Errorf("fenced workers = %v, want exactly the dead one", fenced)
	}
	// Only the apply whose owner is the dead worker is a miss.
	if got := set.TransportStats().FanoutMisses; got != 1 {
		t.Errorf("fan-out misses = %d, want 1", got)
	}
	// The live replica ingested both ratings: fanout delivers to every
	// reachable worker even when the owner's ack fails (replicas must
	// not diverge from each other; the dead worker is behind either
	// way and never serves again under static membership).
	b1.mu.Lock()
	n := len(b1.applied)
	b1.mu.Unlock()
	if n != 2 {
		t.Errorf("live worker ingested %d ratings, want 2", n)
	}
}

// TestShardSetFencesReplicaThatMissedWrite is the divergence guard
// from the other direction: the worker process is alive and serving
// reads, but its Apply fails (full disk, refused ingest). The set
// must fence it — a replica that missed a write can no longer serve
// byte-identical state — so its shards degrade to ErrShardUnavailable
// instead of silently serving stale bytes.
func TestShardSetFencesReplicaThatMissedWrite(t *testing.T) {
	set, b0, b1 := twoWorkerSet(t)
	// Reads on shard 0 work before the miss.
	if _, err := set.ViewScoresMulti([]dataset.UserID{userOnShard(0)}, 10); err != nil {
		t.Fatalf("pre-miss read: %v", err)
	}
	// Worker 0's replica refuses the ingest; the owner (worker 1) acks.
	b0.mu.Lock()
	b0.applyErr = errors.New("disk full")
	b0.mu.Unlock()
	if err := set.Apply(dataset.Rating{User: userOnShard(1), Item: 1, Value: 2, Time: 1}); err != nil {
		t.Fatalf("Apply with live owner: %v", err)
	}
	if fenced := fencedAddrs(set); len(fenced) != 1 {
		t.Fatalf("fenced = %v, want the worker that missed the write", fenced)
	}
	// The alive-but-behind worker no longer serves: its shard reads
	// fast-fail, the live shard keeps serving.
	if _, err := set.ViewScoresMulti([]dataset.UserID{userOnShard(0)}, 10); !errors.Is(err, ErrShardUnavailable) {
		t.Errorf("fenced shard read: err = %v, want ErrShardUnavailable", err)
	}
	if _, err := set.ViewScoresMulti([]dataset.UserID{userOnShard(1)}, 10); err != nil {
		t.Errorf("live shard read: %v", err)
	}
	// Later applies skip the fenced replica entirely.
	b0.mu.Lock()
	b0.applyErr = nil
	b0.mu.Unlock()
	if err := set.Apply(dataset.Rating{User: userOnShard(1), Item: 2, Value: 3, Time: 2}); err != nil {
		t.Fatalf("post-fence apply: %v", err)
	}
	b0.mu.Lock()
	n0 := len(b0.applied)
	b0.mu.Unlock()
	b1.mu.Lock()
	n1 := len(b1.applied)
	b1.mu.Unlock()
	if n0 != 0 || n1 != 2 {
		t.Errorf("applied counts = %d/%d, want 0 (fenced, skipped) / 2", n0, n1)
	}
	// The owner took both ratings: a fenced bystander is no miss.
	if got := set.TransportStats().FanoutMisses; got != 0 {
		t.Errorf("fan-out misses = %d, want 0", got)
	}
}

// TestShardSetConcurrentReads exercises the per-client connection pool
// under parallel scatter traffic; run with -race.
func TestShardSetConcurrentReads(t *testing.T) {
	set, _, _ := twoWorkerSet(t)
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				u := userOnShard((g + i) % 2)
				if _, err := set.ViewScoresMulti([]dataset.UserID{u}, 10); err != nil {
					errc <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent read: %v", err)
	}
}
