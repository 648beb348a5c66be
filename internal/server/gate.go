// Package server is the serving layer in front of the recommendation
// engine: an HTTP front end whose recommend routes pass an admission
// gate (load shedding, drain on shutdown) and then run the request on
// the handler's own goroutine. See DESIGN.md's "Serving layer" section.
package server

import (
	"context"
	"errors"
	"sync"

	"repro"
	"repro/internal/dataset"
)

// ErrClosed is returned by Submit after Close has begun draining.
var ErrClosed = errors.New("server: draining")

// ErrOverloaded is returned by Submit when the number of in-flight
// callers has reached the gate's bound — the load-shedding signal the
// HTTP layer maps to 429 with a Retry-After.
var ErrOverloaded = errors.New("server: too many pending requests")

// serveFunc runs one request to completion on the calling goroutine;
// the production one is repro.(*World).RecommendContext.
type serveFunc func(ctx context.Context, group []dataset.UserID, opt repro.Options) (*repro.Recommendation, error)

// GateStats is a snapshot of a gate's counters.
type GateStats struct {
	// Requests is the number of admitted callers.
	Requests uint64 `json:"requests"`
	// Shed counts callers rejected with ErrOverloaded.
	Shed uint64 `json:"shed"`
	// Parked counts admitted callers whose request is still running.
	Parked int `json:"parked"`
}

// Gate is the admission control in front of the engine: it bounds the
// requests in flight, sheds the excess, and lets Close wait for the
// admitted ones. It starts no goroutine and holds no request back —
// an admitted request runs at once, on its caller's goroutine.
//
// A Gate is safe for any number of concurrent callers.
type Gate struct {
	// serve is what Submit runs. The stream route's gate has none: its
	// handler drives RecommendStream itself between enter and leave.
	serve serveFunc
	// maxPending bounds the callers in flight (0 = unbounded).
	maxPending int

	mu     sync.Mutex
	closed bool
	stats  GateStats
	// inflight tracks admitted callers so Close can wait for them.
	inflight sync.WaitGroup
}

func newGate(serve serveFunc, maxPending int) *Gate {
	return &Gate{serve: serve, maxPending: maxPending}
}

// enter admits one caller or reports why not (ErrClosed,
// ErrOverloaded). Every nil return must be paired with one leave.
func (g *Gate) enter() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	if g.maxPending > 0 && g.stats.Parked >= g.maxPending {
		g.stats.Shed++
		return ErrOverloaded
	}
	g.stats.Requests++
	g.stats.Parked++
	g.inflight.Add(1)
	return nil
}

func (g *Gate) leave() {
	g.mu.Lock()
	g.stats.Parked--
	g.mu.Unlock()
	g.inflight.Done()
}

// Submit serves req on the calling goroutine and returns its outcome:
// engine-side failures travel in the Result, like a batch slot's. The
// error is ErrClosed once Close has begun, ErrOverloaded when the
// in-flight bound is reached, or ctx's error when the caller gave up —
// the run observes ctx and stops within one check interval.
func (g *Gate) Submit(ctx context.Context, req repro.Request) (repro.Result, error) {
	// A caller that is already gone must not take an in-flight slot.
	if err := ctx.Err(); err != nil {
		return repro.Result{}, err
	}
	if err := g.enter(); err != nil {
		return repro.Result{}, err
	}
	defer g.leave()
	rec, err := g.serve(ctx, req.Group, req.Options)
	if err != nil {
		if cerr := ctx.Err(); cerr != nil {
			return repro.Result{}, cerr
		}
		return repro.Result{Err: err}, nil
	}
	return repro.Result{Recommendation: rec}, nil
}

// Close drains the gate: admitted callers run to completion, later
// ones are refused with ErrClosed. Close is idempotent.
func (g *Gate) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
	g.inflight.Wait()
}

// Stats snapshots the gate's counters.
func (g *Gate) Stats() GateStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.stats
}
