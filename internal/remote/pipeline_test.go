package remote

// The pipelined-connection battery: concurrent calls sharing one
// connection, demultiplexed by sequence number. Run with -race — the
// interleavings these tests force (whole replies of overlapping
// multi-views, a disconnect with several calls in flight before any
// reply, out-of-order replies) are exactly where a demux data race
// would hide.

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
)

// scriptedWorker accepts connections, answers the handshake advertising
// the given protocol version, then hands each connection to serve for
// full control over the request/response stream (unlike rawWorker,
// which reads exactly one request).
func scriptedWorker(t *testing.T, version uint16, serve func(conn net.Conn)) string {
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
				if err := writeFrame(conn, frame{kind: kindHelloAck, seq: f.seq, payload: encodeHelloAck([]int{0}, version)}); err != nil {
					return
				}
				serve(conn)
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// TestPipelinedInterleavedMultiViews: many concurrent ViewScoresMulti
// calls share one connection (PoolSize 1), so the server's per-request
// dispatch goroutines interleave whole replies to different calls on
// the same wire. Every call must still get its own users' exact
// scores, and the whole burst must cost exactly one dial.
func TestPipelinedInterleavedMultiViews(t *testing.T) {
	b := allOwned()
	b.viewLen = 23
	b.delay = time.Millisecond // widen the interleaving window
	addr := startWorker(t, b)
	cfg := testClientConfig(b)
	cfg.PoolSize = 1
	cfg.CallTimeout = 5 * time.Second
	c := NewClient(addr, cfg)
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			users := []dataset.UserID{dataset.UserID(g), dataset.UserID(g + 100), dataset.UserID(g + 200)}
			res, err := c.ViewScoresMulti(users, b.viewLen)
			if err != nil {
				errc <- err
				return
			}
			for i, u := range users {
				if !reflect.DeepEqual(res[i], b.scoresFor(u)) {
					errc <- fmt.Errorf("user %d: scores cross-wired under interleaving", u)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	if d := c.counters.dials.Load(); d != 1 {
		t.Errorf("dials = %d, want 1 (every call pipelined on one connection)", d)
	}
}

// TestPipelinedDisconnectBeforeReply: the worker dies with two calls
// in flight on one connection, neither answered. Both calls must fail
// ErrShardUnavailable — neither a hang nor a reply crossed to the
// other call.
func TestPipelinedDisconnectBeforeReply(t *testing.T) {
	addr := scriptedWorker(t, frameVersion, func(conn net.Conn) {
		for n := 0; n < 2; n++ {
			if _, err := readFrame(conn); err != nil {
				return
			}
		}
		// Die before any reply: both calls are in flight.
	})
	c := NewClient(addr, ClientConfig{
		CallTimeout: time.Second,
		Retries:     -1, // no redial: the torn stream itself must surface
		Backoff:     time.Millisecond,
		Shards:      1,
		PoolSize:    1,
	})
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.ViewScoresMulti([]dataset.UserID{dataset.UserID(i)}, 3)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, ErrShardUnavailable) {
			t.Errorf("call %d: err = %v, want ErrShardUnavailable", i, err)
		}
	}
}

// TestPipelinedOutOfOrderReplies: the worker answers two in-flight
// calls in reverse arrival order. The demux must route each reply to
// its own call by sequence number, not by arrival position.
func TestPipelinedOutOfOrderReplies(t *testing.T) {
	addr := scriptedWorker(t, frameVersion, func(conn net.Conn) {
		var reqs []frame
		for len(reqs) < 2 {
			f, err := readFrame(conn)
			if err != nil {
				return
			}
			reqs = append(reqs, f)
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			f := reqs[i]
			q, err := decodePredictMultiReq(f.payload)
			if err != nil || len(q.Users) != 1 {
				return
			}
			reply := encodeVectors([][]float64{{float64(q.Users[0]) * 10}})
			_ = writeFrame(conn, frame{kind: kindResult, op: f.op, seq: f.seq, payload: reply})
		}
		// Hold the connection open until the client hangs up, so the
		// teardown never races the reply deliveries.
		for {
			if _, err := readFrame(conn); err != nil {
				return
			}
		}
	})
	c := NewClient(addr, ClientConfig{
		CallTimeout: time.Second,
		Backoff:     time.Millisecond,
		Shards:      1,
		PoolSize:    1,
	})
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	var wg sync.WaitGroup
	vals := make([][]float64, 2)
	errs := make([]error, 2)
	for i := range vals {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rows [][]float64
			rows, errs[i] = c.PredictBatchMulti([]dataset.UserID{dataset.UserID(i + 1)}, []dataset.ItemID{7})
			if errs[i] == nil {
				vals[i] = rows[0]
			}
		}(i)
	}
	wg.Wait()
	for i := range vals {
		if errs[i] != nil {
			t.Fatalf("call %d: %v", i, errs[i])
		}
		if want := float64(i+1) * 10; len(vals[i]) != 1 || vals[i][0] != want {
			t.Errorf("call %d got %v, want [%v] — reply routed to the wrong call", i, vals[i], want)
		}
	}
}

// TestPipelinedSecondReplyFailsConnection: one reply per call is the
// rule, so a second frame for an answered call is a protocol violation
// that fails the connection — the first reply still stands, and the
// next call dials a fresh connection.
func TestPipelinedSecondReplyFailsConnection(t *testing.T) {
	addr := scriptedWorker(t, frameVersion, func(conn net.Conn) {
		f, err := readFrame(conn)
		if err != nil {
			return
		}
		for n := 0; n < 2; n++ {
			_ = writeFrame(conn, frame{kind: kindResult, op: f.op, seq: f.seq, payload: []byte("{}")})
		}
		for {
			if _, err := readFrame(conn); err != nil {
				return
			}
		}
	})
	c := NewClient(addr, ClientConfig{CallTimeout: time.Second, Backoff: time.Millisecond, Shards: 1, PoolSize: 1})
	defer c.Close()
	if _, err := c.Stats(); err != nil {
		t.Fatalf("first call: %v", err)
	}
	c.mu.Lock()
	cc := c.conns[0]
	c.mu.Unlock()
	for deadline := time.Now().Add(time.Second); !cc.dead(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatal("the connection survived a second reply to one call")
		}
	}
	if err := cc.errOf(); !errors.Is(err, ErrProtocol) {
		t.Errorf("connection failed with %v, want ErrProtocol", err)
	}
	if _, err := c.Stats(); err != nil {
		t.Fatalf("next call: %v", err)
	}
	if d := c.counters.dials.Load(); d != 2 {
		t.Errorf("dials = %d, want 2 (the failed connection replaced)", d)
	}
}

// TestHandshakeRefusesOtherVersions: one protocol version is spoken. A
// worker advertising any other in its hello ack is refused at the
// handshake with ErrVersionSkew — before a single read is routed to it.
func TestHandshakeRefusesOtherVersions(t *testing.T) {
	for _, v := range []uint16{2, 3, 4, 5, frameVersion + 1} {
		addr := scriptedWorker(t, v, func(conn net.Conn) {})
		c := NewClient(addr, ClientConfig{CallTimeout: time.Second, Backoff: time.Millisecond, Shards: 1})
		if err := c.Ping(); !errors.Is(err, ErrVersionSkew) {
			t.Errorf("worker advertising version %d: err = %v, want ErrVersionSkew", v, err)
		}
		if _, err := c.ViewScoresMulti([]dataset.UserID{1}, 10); !errors.Is(err, ErrVersionSkew) {
			t.Errorf("read against a version-%d worker: err = %v, want ErrVersionSkew", v, err)
		}
		c.Close()
	}
}
