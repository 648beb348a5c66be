package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/shard"
)

// ClientConfig tunes the router side of the transport. The zero value
// is usable; Fingerprint and Shards must be set before the first call
// (the ShardSet's Handshake does).
type ClientConfig struct {
	// DialTimeout bounds connection establishment (1s if 0).
	DialTimeout time.Duration
	// CallTimeout bounds one whole call — request write and reply
	// frame (2s if 0). Expiry maps to ErrShardTimeout.
	CallTimeout time.Duration
	// Fingerprint and Shards identify the router's world; every fresh
	// connection handshakes them against the worker.
	Fingerprint uint64
	Shards      int
	// Owns, when non-nil, is the shard set the topology assigns this
	// worker; the handshake verifies the worker's helloAck agrees and
	// refuses a mis-assigned worker at boot (ErrConfigMismatch)
	// instead of surfacing wrong_shard errors at request time.
	Owns []int
}

func (c *ClientConfig) fill() {
	if c.DialTimeout == 0 {
		c.DialTimeout = time.Second
	}
	if c.CallTimeout == 0 {
		c.CallTimeout = 2 * time.Second
	}
}

// The transport's fixed policy.
const (
	// maxIdle bounds the connections a client keeps open between calls;
	// a connection past it is closed when its call ends. Open
	// connections are not bounded: a call that finds none idle dials.
	maxIdle = 4
	// maxRetries bounds the re-attempts after a transport failure.
	// Reads are idempotent; applies are sequence-numbered and
	// deduplicated by the worker, so both are safe to redeliver.
	maxRetries = 2
	// retryBackoff is the pause before the first re-attempt, doubled
	// per attempt.
	retryBackoff = 5 * time.Millisecond
	// breakerStrikes consecutive transport failures open the circuit:
	// calls fail at once for breakerCooldown instead of re-dialing into
	// a dead worker's DialTimeout every time; then one probe call goes
	// through.
	breakerStrikes  = 3
	breakerCooldown = time.Second
)

// opNames are the wire ops' names, in errors and as calls_by_op keys.
var opNames = map[uint8]string{
	opApply:     "apply",
	opStats:     "stats",
	opViewMulti: "view_multi",
}

// reportedOps are the ops calls_by_op reports: the traffic a request or
// a rating makes. A stats call is not among them. /v1/stats makes one
// per worker on every read, so counting it would make each read move
// the counters it reports.
var reportedOps = [...]uint8{opApply, opViewMulti}

func opName(op uint8) string {
	if n, ok := opNames[op]; ok {
		return n
	}
	return fmt.Sprintf("op%d", op)
}

// transportCounters is one client's wire activity, aggregated across
// the fleet by ShardSet.TransportStats.
type transportCounters struct {
	ops          [8]atomic.Uint64 // calls by op code, retired codes 1..7 included
	retries      atomic.Uint64
	breakerOpens atomic.Uint64
	dials        atomic.Uint64
	reuses       atomic.Uint64
}

// TransportStats is the router-side transport picture: calls by wire
// op, retry and breaker activity, and connection reuse vs dials. Cheap
// enough to read per /v1/stats hit; the benchmark harness derives
// rpcs/op from deltas of the call counters.
type TransportStats struct {
	CallsByOp    map[string]uint64 `json:"calls_by_op"`
	Retries      uint64            `json:"retries"`
	BreakerOpens uint64            `json:"breaker_opens"`
	Dials        uint64            `json:"dials"`
	ConnReuses   uint64            `json:"conn_reuses"`
	// FanoutMisses counts the applies whose owning worker missed the
	// write (see ShardSet.Apply). /v1/stats reports it under
	// ingest.fanout_misses, not here.
	FanoutMisses uint64 `json:"-"`
}

// Client speaks the shard protocol to one worker. A connection carries
// one call at a time: a call takes an idle connection or dials one,
// writes its request, reads its one reply and gives the connection
// back, so concurrent calls ride separate connections and never wait
// on each other. Safe for concurrent use.
type Client struct {
	addr string
	cfg  ClientConfig
	seq  atomic.Uint64

	counters transportCounters

	// fenceReason, when non-nil, quarantines the client: every call
	// fails at once with ErrShardUnavailable. Set when the worker's
	// replica is known to have missed a write (divergent state must
	// not serve); never cleared under static membership — the worker
	// rejoins by restarting with rebuilt state.
	fenceReason atomic.Pointer[string]

	// Circuit breaker: failStreak counts consecutive transport
	// failures; once it reaches breakerStrikes the circuit opens until
	// openUntil (unix nanos), failing calls at once instead of paying
	// DialTimeout per call against a dead worker. The first call after
	// the cooldown probes; success closes the circuit.
	failStreak atomic.Int32
	openUntil  atomic.Int64

	mu     sync.Mutex
	idle   []net.Conn            // most recently used last, at most maxIdle
	open   map[net.Conn]struct{} // every live connection, idle or in a call
	closed bool
}

// NewClient builds a client for the worker at addr. No connection is
// made until the first call (or Ping).
func NewClient(addr string, cfg ClientConfig) *Client {
	cfg.fill()
	return &Client{addr: addr, cfg: cfg, open: make(map[net.Conn]struct{})}
}

// Addr returns the worker address.
func (c *Client) Addr() string { return c.addr }

// Close severs every connection, so calls in flight fail at once.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.closed = true
	for conn := range c.open {
		conn.Close()
	}
	clear(c.open)
	c.idle = nil
}

// Fence quarantines the client: every subsequent call fails at once
// with ErrShardUnavailable, so a replica known to have missed a write
// never serves divergent bytes. Permanent under static membership (the
// worker rejoins by restarting with rebuilt state).
func (c *Client) Fence(reason string) {
	c.fenceReason.CompareAndSwap(nil, &reason)
}

// Fenced reports whether the client has been quarantined.
func (c *Client) Fenced() bool { return c.fenceReason.Load() != nil }

// noteFailure records one transport failure for the circuit breaker,
// opening the circuit once the streak reaches the threshold.
func (c *Client) noteFailure() {
	streak := int(c.failStreak.Add(1))
	if streak >= breakerStrikes {
		c.openUntil.Store(time.Now().Add(breakerCooldown).UnixNano())
		if streak == breakerStrikes {
			c.counters.breakerOpens.Add(1)
		}
	}
}

// noteSuccess records a completed exchange, closing the circuit.
func (c *Client) noteSuccess() {
	c.failStreak.Store(0)
	c.openUntil.Store(0)
}

// gate refuses a call that must not reach the wire: the client is
// fenced (quarantined replica) or closed, or the breaker circuit is
// open.
func (c *Client) gate() error {
	if r := c.fenceReason.Load(); r != nil {
		return fmt.Errorf("%w: worker %s fenced: %s", ErrShardUnavailable, c.addr, *r)
	}
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return fmt.Errorf("%w: client closed (worker %s)", ErrShardUnavailable, c.addr)
	}
	if until := c.openUntil.Load(); until != 0 {
		if time.Now().UnixNano() < until {
			return fmt.Errorf("%w: worker %s circuit open after %d consecutive failures", ErrShardUnavailable, c.addr, c.failStreak.Load())
		}
		// Cooldown elapsed: let this call through as the probe.
		c.openUntil.Store(0)
	}
	return nil
}

// getConn takes the most recently used idle connection, or dials a
// fresh one when none is idle. Handshake failures that are
// configuration-shaped surface as ErrConfigMismatch; everything
// transport-shaped wraps ErrShardUnavailable.
func (c *Client) getConn() (net.Conn, error) {
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		conn := c.idle[n-1]
		c.idle = c.idle[:n-1]
		c.mu.Unlock()
		c.counters.reuses.Add(1)
		return conn, nil
	}
	c.mu.Unlock()

	conn, err := c.dial()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		conn.Close()
		return nil, fmt.Errorf("%w: client closed (worker %s)", ErrShardUnavailable, c.addr)
	}
	c.open[conn] = struct{}{}
	return conn, nil
}

// putConn returns a connection whose call completed to the idle list,
// or closes it when the list is full or the client closed.
func (c *Client) putConn(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, live := c.open[conn]; live && len(c.idle) < maxIdle {
		c.idle = append(c.idle, conn)
		return
	}
	delete(c.open, conn)
	conn.Close()
}

// dropConn closes a connection whose call failed. A torn connection
// usually means the worker went away, taking the idle connections with
// it, so those are closed too: the retry dials instead of spending its
// attempts, and breaker strikes, on dead sockets.
func (c *Client) dropConn(conn net.Conn, torn bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.open, conn)
	conn.Close()
	if torn {
		for _, idle := range c.idle {
			delete(c.open, idle)
			idle.Close()
		}
		c.idle = nil
	}
}

// dial establishes and handshakes one fresh connection.
func (c *Client) dial() (net.Conn, error) {
	c.counters.dials.Add(1)
	conn, err := net.DialTimeout("tcp", c.addr, c.cfg.DialTimeout)
	if err != nil {
		c.noteFailure()
		return nil, fmt.Errorf("%w: dialing worker %s: %v", ErrShardUnavailable, c.addr, err)
	}
	if err := c.handshake(conn); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake runs the hello exchange: the worker must be built from the
// same world, own the shards the topology assigns it, and speak this
// build's protocol version.
func (c *Client) handshake(conn net.Conn) error {
	_ = conn.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
	seq := c.seq.Add(1)
	h := hello{Fingerprint: c.cfg.Fingerprint, Shards: uint32(c.cfg.Shards)}
	if err := writeFrame(conn, frame{kind: kindHello, seq: seq, payload: encodeHello(h)}); err != nil {
		return c.transportErr("hello", err)
	}
	f, err := readFrame(conn)
	if err != nil {
		return c.transportErr("hello", err)
	}
	switch f.kind {
	case kindHelloAck:
		owned, workerVersion, err := decodeHelloAck(f.payload)
		if err != nil {
			return err
		}
		if workerVersion != frameVersion {
			return fmt.Errorf("%w: worker %s speaks version %d, want %d", ErrVersionSkew, c.addr, workerVersion, frameVersion)
		}
		return c.checkOwned(owned)
	case kindError:
		return decodeAppError(f.payload)
	default:
		return fmt.Errorf("%w: hello answered by frame kind %d", ErrProtocol, f.kind)
	}
}

// checkOwned verifies the worker's declared owned shards against the
// topology's assignment (cfg.Owns; nil skips — a bare client has no
// expectation). A worker whose -owns disagrees with the router's
// topology fails here, at boot, instead of answering wrong_shard to
// every request for the mis-assigned shard.
func (c *Client) checkOwned(got []int) error {
	if c.cfg.Owns == nil {
		return nil
	}
	got = append([]int(nil), got...)
	want := append([]int(nil), c.cfg.Owns...)
	sort.Ints(got)
	sort.Ints(want)
	if len(got) != len(want) {
		return fmt.Errorf("%w: worker %s owns shards %v, topology assigns %v", ErrConfigMismatch, c.addr, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%w: worker %s owns shards %v, topology assigns %v", ErrConfigMismatch, c.addr, got, want)
		}
	}
	return nil
}

// transportErr classifies a low-level failure: deadline expiries are
// ErrShardTimeout, everything else (reset, torn frame, corrupt frame)
// is ErrShardUnavailable. Both carry the worker address and count as
// a breaker strike.
func (c *Client) transportErr(op string, err error) error {
	c.noteFailure()
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w: %s to worker %s: %v", ErrShardTimeout, op, c.addr, err)
	}
	return fmt.Errorf("%w: %s to worker %s: %v", ErrShardUnavailable, op, c.addr, err)
}

// call runs one request/reply exchange and returns the reply's result
// payload. A transport failure retries on another connection with
// doubling backoff — every op is safe to redeliver (reads are
// idempotent, applies are sequence-deduplicated by the worker). A call
// the gate refuses never reaches the wire, so it returns at once and
// is not retried.
func (c *Client) call(op uint8, payload []byte) ([]byte, error) {
	c.counters.ops[op].Add(1)
	for attempt := 0; ; attempt++ {
		if err := c.gate(); err != nil {
			return nil, err
		}
		out, err := c.callOnce(op, payload)
		// Only transport-unavailable failures retry: an application
		// error is a delivered answer, and a timeout already consumed
		// the latency budget.
		if err == nil || attempt == maxRetries || !errors.Is(err, ErrShardUnavailable) {
			return out, err
		}
		c.counters.retries.Add(1)
		time.Sleep(retryBackoff << attempt)
	}
}

func (c *Client) callOnce(op uint8, payload []byte) ([]byte, error) {
	conn, err := c.getConn()
	if err != nil {
		return nil, err
	}
	seq := c.seq.Add(1)
	// The deadline is this connection's alone: an expiry closes it and
	// fails no other call.
	_ = conn.SetDeadline(time.Now().Add(c.cfg.CallTimeout))
	if err := writeFrame(conn, frame{kind: kindRequest, op: op, seq: seq, payload: payload}); err != nil {
		err = c.transportErr("request", err)
		c.dropConn(conn, errors.Is(err, ErrShardUnavailable))
		return nil, err
	}
	f, err := readFrame(conn)
	if err != nil {
		err = c.transportErr("response", err)
		c.dropConn(conn, errors.Is(err, ErrShardUnavailable))
		return nil, err
	}
	switch {
	case f.seq != seq || f.op != op:
		err = fmt.Errorf("%w: reply seq %d op %s to request seq %d op %s", ErrProtocol, f.seq, opName(f.op), seq, opName(op))
	case f.kind == kindResult:
		c.noteSuccess()
		c.putConn(conn)
		return f.payload, nil
	case f.kind == kindError:
		c.noteSuccess() // the transport delivered; the refusal is application-level
		c.putConn(conn)
		return nil, decodeAppError(f.payload)
	default:
		err = fmt.Errorf("%w: reply frame kind %d", ErrProtocol, f.kind)
	}
	// A misdirected reply leaves the stream out of step: the connection
	// goes and the call retries like a torn stream.
	c.dropConn(conn, false)
	c.noteFailure()
	return nil, fmt.Errorf("%w: worker %s: %w", ErrShardUnavailable, c.addr, err)
}

// Ping dials (or reuses) a connection and verifies the handshake — the
// eager liveness and configuration check AttachRemote runs per worker.
func (c *Client) Ping() error {
	if err := c.gate(); err != nil {
		return err
	}
	conn, err := c.getConn()
	if err != nil {
		return err
	}
	c.putConn(conn)
	return nil
}

// ViewScoresMulti fetches every listed user's view — its pool-order
// scores, n of them — in one round trip.
func (c *Client) ViewScoresMulti(users []dataset.UserID, n int) ([][]float64, error) {
	if len(users) == 0 {
		return nil, nil
	}
	p, err := c.call(opViewMulti, encodeViewMultiReq(viewMultiReq{Users: users}))
	if err != nil {
		return nil, err
	}
	return decodeVectors(p, len(users), n)
}

// Apply delivers one sequence-stamped rating into the worker's
// replica. The worker deduplicates by sequence, so a delivery whose
// reply was lost in transit is safely redelivered on retry —
// effectively exactly-once per sequence number — and a worker that
// missed an earlier sequence answers ErrReplicaGap instead of
// ingesting past the hole.
func (c *Client) Apply(seq uint64, r dataset.Rating) error {
	_, err := c.call(opApply, encodeApplyReq(applyReq{Seq: seq, Rating: r}))
	return err
}

// Stats fetches the worker's cache totals.
func (c *Client) Stats() (Stats, error) {
	out, err := c.call(opStats, nil)
	if err != nil {
		return Stats{}, err
	}
	return decodeStats(out)
}

// Topology is the static membership configuration: the world's shard
// count and which worker serves which shards. Every shard must be
// owned by exactly one worker.
type Topology struct {
	Shards  int      `json:"shards"`
	Workers []Worker `json:"workers"`
}

// Worker is one worker process in the topology.
type Worker struct {
	Addr string `json:"addr"`
	Owns []int  `json:"owns"`
}

// ParseTopology decodes and validates a topology: positive shard
// count, every shard owned exactly once, no unknown fields.
func ParseTopology(data []byte) (Topology, error) {
	var t Topology
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&t); err != nil {
		return Topology{}, fmt.Errorf("remote: decoding topology: %w", err)
	}
	if err := t.validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// validate checks a topology: positive shard count, at least one
// worker, every worker addressed, every shard owned exactly once.
func (t Topology) validate() error {
	if t.Shards < 1 {
		return fmt.Errorf("remote: topology shard count %d, want >= 1", t.Shards)
	}
	if len(t.Workers) == 0 {
		return fmt.Errorf("remote: topology has no workers")
	}
	owner := make([]string, t.Shards)
	for _, w := range t.Workers {
		if w.Addr == "" {
			return fmt.Errorf("remote: topology worker with empty addr")
		}
		if len(w.Owns) == 0 {
			return fmt.Errorf("remote: worker %s owns no shards", w.Addr)
		}
		for _, s := range w.Owns {
			if s < 0 || s >= t.Shards {
				return fmt.Errorf("remote: worker %s owns shard %d outside [0,%d)", w.Addr, s, t.Shards)
			}
			if owner[s] != "" {
				return fmt.Errorf("remote: shard %d owned by both %s and %s", s, owner[s], w.Addr)
			}
			owner[s] = w.Addr
		}
	}
	for s, a := range owner {
		if a == "" {
			return fmt.Errorf("remote: shard %d has no owner", s)
		}
	}
	return nil
}

// LoadTopology reads and validates a topology file (the router's
// -shards-config flag).
func LoadTopology(path string) (Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Topology{}, fmt.Errorf("remote: reading topology: %w", err)
	}
	return ParseTopology(data)
}

// ShardSet is the router's view of the worker fleet: one client per
// worker, the shard→owner routing, the scatter/gather data-plane
// operations the world plugs in, and the apply protocol (see Apply).
// Safe for concurrent use.
type ShardSet struct {
	top     Topology
	sm      *shard.Map
	owner   []*Client // per shard
	clients []*Client // distinct, in worker order

	// applyMu serializes Apply: it guards applySeq, the last stamped
	// sequence, and is held across the fan-out. Sequences start at 0 in
	// every process: router and workers boot from identical ratings.
	applyMu      sync.Mutex
	applySeq     uint64
	fanoutMisses atomic.Uint64
}

// NewShardSet builds the client fleet for a topology, refusing one
// ParseTopology would refuse. cfg.Fingerprint and cfg.Shards are
// overwritten by Handshake; connections are dialed lazily.
func NewShardSet(top Topology, cfg ClientConfig) (*ShardSet, error) {
	if err := top.validate(); err != nil {
		return nil, err
	}
	sm, _ := shard.New(top.Shards) // validate refused Shards < 1
	s := &ShardSet{top: top, sm: sm, owner: make([]*Client, top.Shards)}
	for _, w := range top.Workers {
		wcfg := cfg
		// The handshake verifies each worker's helloAck against its
		// topology assignment, so a mis-deployed -owns fails at boot.
		wcfg.Owns = append([]int(nil), w.Owns...)
		cl := NewClient(w.Addr, wcfg)
		s.clients = append(s.clients, cl)
		for _, sh := range w.Owns {
			s.owner[sh] = cl
		}
	}
	return s, nil
}

// Handshake pins the world identity every connection must present and
// eagerly verifies every worker is reachable and agrees. Call once,
// before serving.
func (s *ShardSet) Handshake(fingerprint uint64, shards int) error {
	if shards != s.top.Shards {
		return fmt.Errorf("%w: world has %d shards, topology %d", ErrConfigMismatch, shards, s.top.Shards)
	}
	for _, cl := range s.clients {
		cl.cfg.Fingerprint = fingerprint
		cl.cfg.Shards = shards
	}
	for _, cl := range s.clients {
		if err := cl.Ping(); err != nil {
			return fmt.Errorf("worker %s: %w", cl.Addr(), err)
		}
	}
	return nil
}

// ownerOf routes a user to its owning client.
func (s *ShardSet) ownerOf(u dataset.UserID) *Client { return s.owner[s.sm.Of(int64(u))] }

// bucketByOwner groups user indices by owning client, preserving
// request order within each bucket, keyed by position in s.clients so
// the scatter order — and therefore the first error returned — is
// deterministic.
func (s *ShardSet) bucketByOwner(users []dataset.UserID) map[*Client][]int {
	buckets := make(map[*Client][]int)
	for i, u := range users {
		cl := s.ownerOf(u)
		buckets[cl] = append(buckets[cl], i)
	}
	return buckets
}

// ViewScoresMulti fetches every listed user's view, n scores each,
// with one RPC per owning worker — O(workers) round trips per group
// assembly instead of O(members). The reads run concurrently and the
// vectors gather back into request order. It is the read boundary: a
// read the worker failed — a protocol violation, an internal or
// wrong_shard refusal — is the worker's fault, never the caller's, so
// it surfaces as ErrShardUnavailable with its cause still matchable; a
// timeout keeps its own verdict.
func (s *ShardSet) ViewScoresMulti(users []dataset.UserID, n int) ([][]float64, error) {
	if len(users) == 0 {
		return nil, nil
	}
	buckets := s.bucketByOwner(users)
	out := make([][]float64, len(users))
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for ci, cl := range s.clients {
		idx := buckets[cl]
		if len(idx) == 0 {
			continue
		}
		wg.Add(1)
		go func(ci int, cl *Client, idx []int) {
			defer wg.Done()
			batch := make([]dataset.UserID, len(idx))
			for j, i := range idx {
				batch[j] = users[i]
			}
			res, err := cl.ViewScoresMulti(batch, n)
			if err != nil {
				errs[ci] = err
				return
			}
			for j, i := range idx {
				out[i] = res[j]
			}
		}(ci, cl, idx)
	}
	wg.Wait()
	for ci, err := range errs {
		switch {
		case err == nil:
		case errors.Is(err, ErrShardUnavailable), errors.Is(err, ErrShardTimeout):
			return nil, err
		default:
			return nil, fmt.Errorf("%w: worker %s: %w", ErrShardUnavailable, s.clients[ci].Addr(), err)
		}
	}
	return out, nil
}

// Apply fans one rating out to every worker, in the order of the calls.
// Every worker holds a full replica of the rating store, and a worker's
// neighborhoods for its own users read every user's vector, so every
// replica must fold every rating, in one order. The set stamps the next
// apply sequence under applyMu and holds it across the fan-out, so no
// caller can deliver two sequences out of order; the router calls it
// after folding the rating into its own store, journal error or not
// (its replica is the initial state plus every fanned-out rating).
// Deliveries run concurrently, so one dead worker costs at most one dial
// timeout per rating, not one per worker.
//
// Failure policy: a delivery is retried with backoff (the worker
// deduplicates by sequence, so redelivery after a lost reply is safe).
// A worker whose delivery still fails — transport, or a refusal of a
// rating the router already applied — has missed a write its replica
// can never recover under static membership, so it is fenced: every
// later call fast-fails ErrShardUnavailable and its shards degrade
// instead of serving divergent bytes. Fenced workers are skipped. When
// the owner of the rating's user missed it, the apply counts as a
// fan-out miss (TransportStats.FanoutMisses) and the owner's error is
// returned; the rating is still on every live replica, so a miss never
// fails an ingest. A nil set has no replica to reach.
func (s *ShardSet) Apply(r dataset.Rating) error {
	if s == nil {
		return nil
	}
	s.applyMu.Lock()
	defer s.applyMu.Unlock()
	s.applySeq++
	seq, owner := s.applySeq, s.ownerOf(r.User)
	errs := make([]error, len(s.clients))
	var wg sync.WaitGroup
	for i, cl := range s.clients {
		if cl.Fenced() {
			if cl == owner {
				errs[i] = fmt.Errorf("%w: owner %s is fenced", ErrShardUnavailable, cl.Addr())
			}
			continue
		}
		wg.Add(1)
		go func(i int, cl *Client) {
			defer wg.Done()
			errs[i] = cl.Apply(seq, r)
		}(i, cl)
	}
	wg.Wait()
	var ownerErr error
	for i, cl := range s.clients {
		if err := errs[i]; err != nil && !cl.Fenced() {
			cl.Fence(fmt.Sprintf("missed apply seq %d: %v", seq, err))
		}
		if cl == owner {
			ownerErr = errs[i]
		}
	}
	if ownerErr != nil {
		s.fanoutMisses.Add(1)
	}
	return ownerErr
}

// TransportStats aggregates every client's wire counters — the
// `remote.transport` section of /v1/stats — and the set's fan-out
// misses. Every reported op key is present even at zero, and a nil set
// (a world with no fleet) reports zeros, so the JSON shape is
// deployment-independent.
func (s *ShardSet) TransportStats() TransportStats {
	t := TransportStats{CallsByOp: make(map[string]uint64, len(reportedOps))}
	for _, op := range reportedOps {
		t.CallsByOp[opNames[op]] = 0
	}
	if s == nil {
		return t
	}
	for _, cl := range s.clients {
		for _, op := range reportedOps {
			t.CallsByOp[opNames[op]] += cl.counters.ops[op].Load()
		}
		t.Retries += cl.counters.retries.Load()
		t.BreakerOpens += cl.counters.breakerOpens.Load()
		t.Dials += cl.counters.dials.Load()
		t.ConnReuses += cl.counters.reuses.Load()
	}
	t.FanoutMisses = s.fanoutMisses.Load()
	return t
}

// Stats sums the cache totals of every reachable worker. An
// unreachable worker contributes nothing — its shards are degraded, not
// failing the whole answer — and the first error is returned alongside
// for logging. A nil set has no worker to ask and sums to zero.
func (s *ShardSet) Stats() (Stats, error) {
	var sum Stats
	if s == nil {
		return sum, nil
	}
	var firstErr error
	for _, cl := range s.clients {
		st, err := cl.Stats()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		sum.Neighborhoods.Add(st.Neighborhoods)
	}
	return sum, firstErr
}

// Close severs every client's pool.
func (s *ShardSet) Close() {
	for _, cl := range s.clients {
		cl.Close()
	}
}

// Addrs lists the distinct worker addresses in topology order (logs
// and tests).
func (s *ShardSet) Addrs() []string {
	addrs := make([]string, 0, len(s.clients))
	for _, cl := range s.clients {
		addrs = append(addrs, cl.Addr())
	}
	sort.Strings(addrs)
	return addrs
}
