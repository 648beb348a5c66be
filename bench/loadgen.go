package main

import (
	"bytes"
	"io"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dataset"
)

// maxLate bounds how long an open-loop op may wait for a free
// connection before it is counted as failed without being sent; it
// keeps an overloaded run from outliving the driver's time limit.
const maxLate = 5 * time.Second

// sample is one finished op.
type sample struct {
	kind opKind
	ok   bool
	// latency runs from the op's due time in an open loop and from the
	// send in a closed loop; sendDelay is how late the send left.
	latency   time.Duration
	sendDelay time.Duration
	// due (open loop) and end are relative to the start of the phase.
	due, end time.Duration
	// backlog is how many due ops were still unsent when this one left.
	backlog int
}

// loadgen drives a server over a fixed set of keep-alive connections,
// one client (and so one connection) per worker goroutine.
type loadgen struct {
	base    string
	clients []*http.Client

	// ratingMu serializes rating posts, so that the order of the acks —
	// the order the oracle replays them in — is the order of acked.
	ratingMu sync.Mutex
	acked    []dataset.Rating
}

func newLoadgen(base string, conns int) *loadgen {
	lg := &loadgen{base: base}
	for i := 0; i < conns; i++ {
		lg.clients = append(lg.clients, &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return lg
}

func (lg *loadgen) close() {
	for _, c := range lg.clients {
		c.CloseIdleConnections()
	}
}

// do sends one op on client c and reports whether it was answered 200,
// with the response body.
func (lg *loadgen) do(c int, o op) (bool, []byte) {
	if o.kind == opRating {
		lg.ratingMu.Lock()
		defer lg.ratingMu.Unlock()
	}
	resp, err := lg.clients[c].Post(lg.base+o.path(), "application/json", bytes.NewReader(o.body))
	if err != nil {
		return false, nil
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	ok := err == nil && resp.StatusCode == http.StatusOK
	if ok && o.kind == opRating {
		lg.acked = append(lg.acked, o.rating)
	}
	return ok, body
}

// applyDirect ingests a rating op through the facade instead of HTTP,
// keeping it in the ack order.
func (lg *loadgen) applyDirect(w *repro.World, o op) bool {
	lg.ratingMu.Lock()
	defer lg.ratingMu.Unlock()
	if err := w.AddRating(o.rating); err != nil {
		return false
	}
	lg.acked = append(lg.acked, o.rating)
	return true
}

// ackedRatings returns the ratings acknowledged so far, in ack order.
func (lg *loadgen) ackedRatings() []dataset.Rating {
	lg.ratingMu.Lock()
	defer lg.ratingMu.Unlock()
	return append([]dataset.Rating(nil), lg.acked...)
}

// openLoop sends ops on their schedule: each op leaves at its due time
// or, when every connection is busy, as soon as one frees up, and is
// timed from the due time either way, so a stall in the server shows in
// the latency of every op that was due during it. It returns one sample
// per op, in schedule order.
func (lg *loadgen) openLoop(ops []op) []sample {
	samples := make([]sample, len(ops))
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for c := range lg.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				o := ops[i]
				time.Sleep(time.Until(start.Add(o.due)))
				sent := time.Since(start)
				s := sample{kind: o.kind, due: o.due, sendDelay: sent - o.due}
				// Ops are taken in schedule order, so the ones due by
				// now and not yet taken are exactly the backlog.
				dueByNow := sort.Search(len(ops), func(j int) bool { return ops[j].due > sent })
				if s.backlog = dueByNow - i - 1; s.backlog < 0 {
					s.backlog = 0
				}
				if s.sendDelay <= maxLate {
					s.ok, _ = lg.do(c, o)
				}
				s.end = time.Since(start)
				s.latency = s.end - o.due
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	return samples
}

// closedLoop sends ops in rounds until d has passed (d <= 0: until
// nextOp runs dry): every connection sends one op at the same moment,
// and the next round starts when all of them are answered. It returns
// the samples and the time they took.
//
// Clients that each send again the moment they are answered would do
// the same thing most of the time — a coalescing server answers the
// requests of one window together, so the clients fall into step — but
// not all of the time: they also run out of step for seconds on end,
// each alone in its window, a quarter faster, and which regime a short
// run sees is chance. Rounds pin the regime in which every window
// carries one request per connection.
func (lg *loadgen) closedLoop(d time.Duration, nextOp func() (op, bool)) ([]sample, time.Duration) {
	var samples []sample
	start := time.Now()
	for d <= 0 || time.Since(start) < d {
		round := make([]sample, 0, len(lg.clients))
		var wg sync.WaitGroup
		for c := range lg.clients {
			o, more := nextOp()
			if !more {
				break
			}
			round = append(round, sample{kind: o.kind})
			s := &round[len(round)-1]
			wg.Add(1)
			go func() {
				defer wg.Done()
				sent := time.Now()
				s.ok, _ = lg.do(c, o)
				s.latency, s.end = time.Since(sent), time.Since(start)
			}()
		}
		wg.Wait()
		if len(round) == 0 {
			break
		}
		samples = append(samples, round...)
	}
	return samples, time.Since(start)
}

// tally counts a phase's samples.
type tally struct {
	Sent      int     `json:"sent"`
	Succeeded int     `json:"succeeded"`
	Failed    int     `json:"failed"`
	Seconds   float64 `json:"seconds"`
}

func tallyOf(samples []sample, d time.Duration) tally {
	t := tally{Sent: len(samples), Seconds: d.Seconds()}
	for _, s := range samples {
		if s.ok {
			t.Succeeded++
		}
	}
	t.Failed = t.Sent - t.Succeeded
	return t
}

// latenciesMS returns the sorted latencies, in milliseconds, of the
// successful samples of one kind.
func latenciesMS(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.ok && s.kind == kind {
			out = append(out, ms(s.latency))
		}
	}
	sort.Float64s(out)
	return out
}
