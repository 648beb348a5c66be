package remote

// The connection battery: a connection carries one call at a time, so
// concurrent calls ride separate connections, a call's deadline or a
// misdirected reply costs only its own connection, and idle connections
// are reused. Run with -race and -count: a pool bug shows up as a rare
// interleaving, not on every run.

import (
	"errors"
	"fmt"
	"net"
	"reflect"
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

// liveConns reports the client's open and idle connection counts.
func liveConns(c *Client) (open, idle int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.open), len(c.idle)
}

// TestConnConcurrentMultiViews: concurrent ViewScoresMulti calls ride
// separate connections, each answered in order by its own worker
// goroutine. Every call must get its own users' exact scores; once the
// burst ends at most maxIdle connections stay open, and a sequential
// call reuses one of them instead of dialing.
func TestConnConcurrentMultiViews(t *testing.T) {
	b := allOwned()
	b.viewLen = 23
	b.delay = time.Millisecond // keep the calls in flight together
	addr := startWorker(t, b)
	cfg := testClientConfig(b)
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
					errc <- fmt.Errorf("user %d: scores cross-wired between concurrent calls", u)
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
	if open, idle := liveConns(c); open != idle || idle < 1 || idle > maxIdle {
		t.Errorf("after the burst: %d open, %d idle; want every open connection idle, 1..%d of them", open, idle, maxIdle)
	}

	dials, reuses := c.counters.dials.Load(), c.counters.reuses.Load()
	if _, err := c.ViewScoresMulti([]dataset.UserID{7}, b.viewLen); err != nil {
		t.Fatalf("sequential call: %v", err)
	}
	if d := c.counters.dials.Load(); d != dials {
		t.Errorf("dials %d → %d: the sequential call dialed with idle connections open", dials, d)
	}
	if r := c.counters.reuses.Load(); r != reuses+1 {
		t.Errorf("conn_reuses %d → %d, want +1", reuses, r)
	}
	if c.counters.retries.Load() != 0 {
		t.Errorf("retries = %d, want 0", c.counters.retries.Load())
	}
}

// TestConnDisconnectBeforeReply: two concurrent calls whose worker reads
// each request and dies before replying, on every connection. Both
// calls must fail ErrShardUnavailable — neither hangs to its deadline,
// and neither is handed a reply.
func TestConnDisconnectBeforeReply(t *testing.T) {
	addr := scriptedWorker(t, frameVersion, func(conn net.Conn) {
		_, _ = readFrame(conn) // die before any reply
	})
	c := NewClient(addr, ClientConfig{CallTimeout: 5 * time.Second, Shards: 1})
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("Ping: %v", err)
	}

	start := time.Now()
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
	if took := time.Since(start); took > time.Second {
		t.Errorf("the torn calls took %v, want well inside the 5s deadline", took)
	}
}

// TestConnSecondReplyIsNotReturned: one reply per call is the rule. A
// worker that answers a call twice leaves the stray reply on the
// connection; the first reply stands, and the next call that takes the
// connection reads the stray frame's foreign sequence, drops the
// connection and retries on a fresh dial — it never returns the stray
// payload.
func TestConnSecondReplyIsNotReturned(t *testing.T) {
	var first Stats
	first.Neighborhoods.Hits = 1
	answer, err := encodeStats(first)
	if err != nil {
		t.Fatal(err)
	}
	var stray Stats
	stray.Neighborhoods.Hits = 999
	strayPayload, err := encodeStats(stray)
	if err != nil {
		t.Fatal(err)
	}
	addr := scriptedWorker(t, frameVersion, func(conn net.Conn) {
		f, err := readFrame(conn)
		if err != nil {
			return
		}
		_ = writeFrame(conn, frame{kind: kindResult, op: f.op, seq: f.seq, payload: answer})
		_ = writeFrame(conn, frame{kind: kindResult, op: f.op, seq: f.seq, payload: strayPayload})
		for {
			if _, err := readFrame(conn); err != nil {
				return
			}
		}
	})
	c := NewClient(addr, ClientConfig{CallTimeout: time.Second, Shards: 1})
	defer c.Close()
	want, err := decodeStats(answer)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := c.Stats(); err != nil || got != want {
		t.Fatalf("first call = %+v, %v; want the first reply %+v", got, err, want)
	}
	got, err := c.Stats()
	if err != nil {
		t.Fatalf("next call: %v", err)
	}
	if got == stray {
		t.Fatal("the next call returned the stray second reply")
	}
	if got != want {
		t.Errorf("next call = %+v, want %+v", got, want)
	}
	if d := c.counters.dials.Load(); d != 2 {
		t.Errorf("dials = %d, want 2 (the out-of-step connection replaced)", d)
	}
	if r := c.counters.retries.Load(); r != 1 {
		t.Errorf("retries = %d, want 1", r)
	}
}

// gatedBackend stalls the view reads of chosen users until a channel
// closes, and reports each stalled read as it starts.
type gatedBackend struct {
	*fakeBackend
	gates   map[dataset.UserID]chan struct{}
	started chan dataset.UserID
}

func (b gatedBackend) ViewScores(u dataset.UserID) ([]float64, error) {
	if g, ok := b.gates[u]; ok {
		b.started <- u
		<-g
	}
	return b.fakeBackend.ViewScores(u)
}

// TestConnTimeoutClosesOnlyItsConnection: a call that outlives its
// deadline closes its own connection and nothing else. A call already
// in flight on another connection, answered only after the first call
// has timed out, still gets its answer — no retry, no redial — and its
// connection goes back idle.
func TestConnTimeoutClosesOnlyItsConnection(t *testing.T) {
	const slowUser, laterUser = dataset.UserID(1), dataset.UserID(2)
	b := gatedBackend{
		fakeBackend: allOwned(),
		gates:       map[dataset.UserID]chan struct{}{slowUser: make(chan struct{}), laterUser: make(chan struct{})},
		started:     make(chan dataset.UserID, 2),
	}
	addr := startWorker(t, b)
	// Registered after startWorker, so it runs first: the stalled
	// worker goroutines finish before the server drains them.
	t.Cleanup(func() {
		for _, g := range b.gates {
			select {
			case <-g:
			default:
				close(g)
			}
		}
	})
	cfg := testClientConfig(b.fakeBackend)
	cfg.CallTimeout = 300 * time.Millisecond
	c := NewClient(addr, cfg)
	defer c.Close()

	slowErr := make(chan error, 1)
	go func() {
		_, err := c.ViewScoresMulti([]dataset.UserID{slowUser}, 10)
		slowErr <- err
	}()
	<-b.started
	// The later call's deadline falls this long after the slow call's.
	time.Sleep(100 * time.Millisecond)
	type reply struct {
		res [][]float64
		err error
	}
	later := make(chan reply, 1)
	go func() {
		res, err := c.ViewScoresMulti([]dataset.UserID{laterUser}, 10)
		later <- reply{res, err}
	}()
	<-b.started
	if err := <-slowErr; !errors.Is(err, ErrShardTimeout) {
		t.Fatalf("slow call: err = %v, want ErrShardTimeout", err)
	}
	close(b.gates[laterUser]) // answer the later call only now
	r := <-later
	if r.err != nil {
		t.Fatalf("the call beside a timed-out one failed: %v", r.err)
	}
	if !reflect.DeepEqual(r.res[0], b.scoresFor(laterUser)) {
		t.Errorf("later call scores = %v, want %v", r.res[0], b.scoresFor(laterUser))
	}
	if n := c.counters.retries.Load(); n != 0 {
		t.Errorf("retries = %d, want 0", n)
	}
	if d := c.counters.dials.Load(); d != 2 {
		t.Errorf("dials = %d, want 2 (one per concurrent call, no redial)", d)
	}
	if open, idle := liveConns(c); open != 1 || idle != 1 {
		t.Errorf("%d open, %d idle; want the later call's connection alone, idle", open, idle)
	}
}

// TestConnRefusedCallFailsFast: a call the gate refuses — the client is
// fenced or closed, or its circuit is open — never reaches the wire, so
// it returns ErrShardUnavailable at once, with no backoff and no retry
// counted.
func TestConnRefusedCallFailsFast(t *testing.T) {
	const fast = 5 * time.Millisecond
	refused := func(t *testing.T, c *Client, what string) {
		t.Helper()
		retries := c.counters.retries.Load()
		start := time.Now()
		_, err := c.ViewScoresMulti([]dataset.UserID{1}, 10)
		if took := time.Since(start); took >= fast {
			t.Errorf("%s: the refusal took %v, want under %v", what, took, fast)
		}
		if !errors.Is(err, ErrShardUnavailable) {
			t.Errorf("%s: err = %v, want ErrShardUnavailable", what, err)
		}
		if r := c.counters.retries.Load(); r != retries {
			t.Errorf("%s: retries %d → %d, want unchanged", what, retries, r)
		}
	}

	t.Run("fenced", func(t *testing.T) {
		b := allOwned()
		c := NewClient(startWorker(t, b), testClientConfig(b))
		defer c.Close()
		if err := c.Ping(); err != nil {
			t.Fatalf("Ping: %v", err)
		}
		c.Fence("missed apply")
		refused(t, c, "fenced read")
	})
	t.Run("closed", func(t *testing.T) {
		b := allOwned()
		c := NewClient(startWorker(t, b), testClientConfig(b))
		if err := c.Ping(); err != nil {
			t.Fatalf("Ping: %v", err)
		}
		c.Close()
		refused(t, c, "read on a closed client")
	})
	t.Run("circuit open", func(t *testing.T) {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addr := lis.Addr().String()
		lis.Close() // nothing listens there now
		cfg := testClientConfig(allOwned())
		cfg.DialTimeout = 200 * time.Millisecond
		c := NewClient(addr, cfg)
		defer c.Close()
		// The first call spends its retries on failed dials and opens
		// the circuit.
		if _, err := c.ViewScoresMulti([]dataset.UserID{1}, 10); !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("first call: err = %v, want ErrShardUnavailable", err)
		}
		if n := c.counters.breakerOpens.Load(); n != 1 {
			t.Fatalf("breaker opens = %d, want 1", n)
		}
		dials := c.counters.dials.Load()
		refused(t, c, "call with the circuit open")
		refused(t, c, "second call with the circuit open")
		if d := c.counters.dials.Load(); d != dials {
			t.Errorf("dials %d → %d with the circuit open", dials, d)
		}
	})
}

// TestConnWorkerRestartDialsFresh: a worker that restarts on its
// address leaves the client's idle connections dead. The first call
// after the restart finds one torn, closes every idle connection with
// it and succeeds on a fresh dial — it does not spend its retries, and
// breaker strikes, on the other dead sockets.
func TestConnWorkerRestartDialsFresh(t *testing.T) {
	// The warm-up reads stall until all of them are in flight, so each
	// rides its own connection and every one of them ends idle.
	release := make(chan struct{})
	b := gatedBackend{fakeBackend: allOwned(), gates: map[dataset.UserID]chan struct{}{}, started: make(chan dataset.UserID, maxIdle)}
	for u := dataset.UserID(0); u < maxIdle; u++ {
		b.gates[u] = release
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := lis.Addr().String()
	first := NewServer(b)
	go first.Serve(lis)
	t.Cleanup(first.Close)
	c := NewClient(addr, testClientConfig(b.fakeBackend))
	defer c.Close()

	var wg sync.WaitGroup
	for u := dataset.UserID(0); u < maxIdle; u++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.ViewScoresMulti([]dataset.UserID{u}, 10); err != nil {
				t.Errorf("warm-up call: %v", err)
			}
		}()
	}
	for range maxIdle {
		<-b.started
	}
	close(release)
	wg.Wait()
	if open, idle := liveConns(c); open != maxIdle || idle != maxIdle {
		t.Fatalf("after the warm-up: %d open, %d idle; want %d of each", open, idle, maxIdle)
	}

	first.Close()
	lis2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("listening again on %s: %v", addr, err)
	}
	second := NewServer(b.fakeBackend)
	go second.Serve(lis2)
	t.Cleanup(second.Close)

	dials := c.counters.dials.Load()
	if _, err := c.ViewScoresMulti([]dataset.UserID{maxIdle}, 10); err != nil {
		t.Fatalf("first call after the restart: %v", err)
	}
	if n := c.counters.retries.Load(); n != 1 {
		t.Errorf("retries = %d, want 1 (one torn idle connection, then a fresh dial)", n)
	}
	if d := c.counters.dials.Load(); d != dials+1 {
		t.Errorf("dials %d → %d, want one fresh dial", dials, d)
	}
	if n := c.counters.breakerOpens.Load(); n != 0 {
		t.Errorf("breaker opens = %d, want 0", n)
	}
	if open, idle := liveConns(c); open != 1 || idle != 1 {
		t.Errorf("%d open, %d idle; want the fresh connection alone", open, idle)
	}
}

// TestHandshakeRefusesOtherVersions: one protocol version is spoken. A
// worker advertising any other in its hello ack is refused at the
// handshake with ErrVersionSkew — before a single read is routed to it.
func TestHandshakeRefusesOtherVersions(t *testing.T) {
	for _, v := range []uint16{2, 3, 4, 5, frameVersion + 1} {
		addr := scriptedWorker(t, v, func(conn net.Conn) {})
		c := NewClient(addr, ClientConfig{CallTimeout: time.Second, Shards: 1})
		if err := c.Ping(); !errors.Is(err, ErrVersionSkew) {
			t.Errorf("worker advertising version %d: err = %v, want ErrVersionSkew", v, err)
		}
		if _, err := c.ViewScoresMulti([]dataset.UserID{1}, 10); !errors.Is(err, ErrVersionSkew) {
			t.Errorf("read against a version-%d worker: err = %v, want ErrVersionSkew", v, err)
		}
		c.Close()
	}
}
