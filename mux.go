package repro

import (
	"context"
	"math"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cf"
	"repro/internal/core"
	"repro/internal/dataset"
)

// runMux is the shared-runner multiplexer: a singleflight over
// in-flight recommendation runs, keyed on a canonical (group, options)
// fingerprint. Identical concurrent RecommendContext / RecommendStream
// calls (and the batch/coalescer traffic funneling through them) ride
// one core.Runner driven by one goroutine, with per-subscriber fan-out:
// each subscriber's context, ProgressEvery thinning, and Epsilon policy
// are honored independently, and the run is abandoned when its last
// subscriber detaches. Only in-flight runs are shared — a run's map
// entry is removed before its results are delivered, so the mux never
// serves a cached result.
type runMux struct {
	mu   sync.Mutex
	runs map[string]*muxRun

	started atomic.Int64 // runs actually driven
	shared  atomic.Int64 // joins that attached to an in-flight run
}

func newRunMux() *runMux {
	return &runMux{runs: make(map[string]*muxRun)}
}

// MuxStats counts the shared-runner multiplexer's traffic. Shared is
// the saving: each shared join is one full run that did not happen.
type MuxStats struct {
	// Runs is the number of runner executions actually driven.
	Runs int64 `json:"runs"`
	// Shared is the number of calls served by another identical call's
	// run instead of starting their own — mux joins on an in-flight
	// run and within-batch duplicates both count.
	Shared int64 `json:"shared"`
	// Active is the number of currently in-flight shared runs.
	Active int `json:"active"`
}

// MuxStats snapshots the shared-runner multiplexer counters. The
// counters are atomic; Runs/Shared/Active are only eventually
// consistent with each other.
func (w *World) MuxStats() MuxStats {
	m := w.mux
	m.mu.Lock()
	active := len(m.runs)
	m.mu.Unlock()
	return MuxStats{
		Runs:   m.started.Load(),
		Shared: m.shared.Load(),
		Active: active,
	}
}

// muxSub is one subscriber of a shared run: its cancellation context,
// its progress fan-out settings, and the settled outcome. done closes
// exactly once, after rec/err are written; the subscriber's goroutine
// parks on it, so the close is the happens-before edge publishing the
// result (and ordering the driver's fn invocations before the
// subscriber resumes).
type muxSub struct {
	ctx      context.Context
	fn       func(Progress) bool
	every    int
	eps      float64
	joinedAt int // run step count at join; thinning is relative to it

	rec  *Recommendation
	err  error
	done chan struct{}
}

func (s *muxSub) settle(rec *Recommendation, err error) {
	s.rec, s.err = rec, err
	close(s.done)
}

// muxRun is one in-flight shared run. Lock order: runMux.mu before
// muxRun.mu, always. The closed flag and the map entry flip together
// under both locks — joiners that find the run in the map are
// therefore guaranteed to attach before the driver finalizes, and the
// driver's final sweep is guaranteed to see them.
type muxRun struct {
	mux   *runMux
	w     *World
	key   string
	group []dataset.UserID
	// opt is the canonical option set driving the run; the
	// per-subscriber fields (ProgressEvery, Epsilon) are zeroed.
	opt Options

	mu     sync.Mutex
	subs   []*muxSub
	steps  int
	closed bool
}

// join attaches to the in-flight run for (group, opt) or starts one.
// opt must already be filled.
func (m *runMux) join(ctx context.Context, w *World, group []dataset.UserID, opt Options, fn func(Progress) bool) *muxSub {
	every := opt.ProgressEvery
	if every <= 0 {
		every = 1
	}
	sub := &muxSub{ctx: ctx, fn: fn, every: every, eps: opt.Epsilon, done: make(chan struct{})}
	key := runFingerprint(group, &opt)
	m.mu.Lock()
	if ru, ok := m.runs[key]; ok {
		ru.mu.Lock()
		sub.joinedAt = ru.steps
		ru.subs = append(ru.subs, sub)
		ru.mu.Unlock()
		m.mu.Unlock()
		m.shared.Add(1)
		return sub
	}
	ru := &muxRun{mux: m, w: w, key: key, group: group, opt: opt, subs: []*muxSub{sub}}
	ru.opt.ProgressEvery = 0
	ru.opt.Epsilon = 0
	m.runs[key] = ru
	m.mu.Unlock()
	m.started.Add(1)
	go ru.drive()
	return sub
}

// snapshotSubs copies the current subscriber list into buf (reused
// across the driver's steps so steady-state snapshots allocate
// nothing) and returns it.
func (ru *muxRun) snapshotSubs(buf []*muxSub) []*muxSub {
	ru.mu.Lock()
	buf = append(buf[:0], ru.subs...)
	ru.mu.Unlock()
	return buf
}

// detach removes a settled subscriber.
func (ru *muxRun) detach(s *muxSub) {
	ru.mu.Lock()
	for i, t := range ru.subs {
		if t == s {
			ru.subs = append(ru.subs[:i], ru.subs[i+1:]...)
			break
		}
	}
	ru.mu.Unlock()
}

// tryAbandon ends a run whose subscribers all detached. It re-checks
// under both locks: a joiner may have attached between the driver's
// empty snapshot and the lock acquisition, in which case the run keeps
// driving for it.
func (ru *muxRun) tryAbandon() bool {
	ru.mux.mu.Lock()
	ru.mu.Lock()
	if len(ru.subs) > 0 {
		ru.mu.Unlock()
		ru.mux.mu.Unlock()
		return false
	}
	delete(ru.mux.runs, ru.key)
	ru.closed = true
	ru.mu.Unlock()
	ru.mux.mu.Unlock()
	return true
}

// finishTakeAll removes the run from the mux and returns the remaining
// subscribers for final settlement. After it returns, no new joiner can
// see the run, so the returned list is complete.
func (ru *muxRun) finishTakeAll() []*muxSub {
	ru.mux.mu.Lock()
	ru.mu.Lock()
	delete(ru.mux.runs, ru.key)
	ru.closed = true
	subs := ru.subs
	ru.subs = nil
	ru.mu.Unlock()
	ru.mux.mu.Unlock()
	return subs
}

// drive runs the shared runner to completion (or abandonment) on its
// own goroutine. The loop body replicates recommendStreamDirect's
// ordering exactly — per-subscriber context check before the step, one
// Step, progress frame on (done || every-th step since join), consumer
// stop before the epsilon check, epsilon stop, then termination — so a
// run with one subscriber is step-for-step identical to the unshared
// path, and every subscriber of a shared run settles with exactly the
// bytes a solo run would have produced at the same stopping point.
// Each subscriber gets its own Progress frames and its own
// Recommendation; nothing settled is shared between subscribers.
func (ru *muxRun) drive() {
	w := ru.w
	prob, items, period, release, err := w.buildProblem(ru.group, &ru.opt)
	if err != nil {
		ru.failAll(err)
		return
	}
	defer release()
	r, err := prob.Runner(ru.opt.Mode)
	if err != nil {
		ru.failAll(err)
		return
	}
	var subsBuf []*muxSub
	for {
		subs := ru.snapshotSubs(subsBuf)
		subsBuf = subs
		if len(subs) == 0 {
			if ru.tryAbandon() {
				return
			}
			continue // a joiner raced the abandon; keep driving
		}
		detached := false
		for _, s := range subs {
			if err := s.ctx.Err(); err != nil {
				s.settle(w.partialRecommendation(r.Snapshot(), items, period, core.StopCancelled), err)
				ru.detach(s)
				detached = true
			}
		}
		if detached {
			subs = ru.snapshotSubs(subsBuf)
			subsBuf = subs
			if len(subs) == 0 {
				if ru.tryAbandon() {
					return
				}
				continue
			}
		}
		done := r.Step(1)
		ru.mu.Lock()
		ru.steps++
		steps := ru.steps
		ru.mu.Unlock()
		for _, s := range subs {
			if s.fn != nil && (done || (steps-s.joinedAt)%s.every == 0) {
				snap := r.Snapshot()
				if !s.fn(progressFrom(snap, items)) && !done {
					s.settle(w.partialRecommendation(snap, items, period, core.StopCancelled), nil)
					ru.detach(s)
					continue
				}
			}
			if r.EpsilonReached(s.eps) {
				s.settle(w.partialRecommendation(r.Snapshot(), items, period, core.StopEpsilon), nil)
				ru.detach(s)
			}
		}
		if done {
			break
		}
	}
	res, err := r.Result()
	for _, s := range ru.finishTakeAll() {
		if err != nil {
			s.settle(nil, err)
			continue
		}
		rec := &Recommendation{Stats: res.Stats, Period: period}
		for _, is := range res.TopK {
			rec.Items = append(rec.Items, ScoredItem{
				Item:       items[is.Key],
				Score:      is.LB,
				UpperBound: is.UB,
			})
		}
		s.settle(rec, nil)
	}
}

// failAll settles every subscriber with a setup error.
func (ru *muxRun) failAll(err error) {
	for _, s := range ru.finishTakeAll() {
		s.settle(nil, err)
	}
}

// runFingerprint canonicalizes (group, options) for the mux key. The
// group is fingerprinted in its EXACT order: float summation is
// order-sensitive, so two member orderings are distinct computations
// whose results may differ in the last bit — sharing them would break
// the bit-identicality contract. The per-subscriber fields
// (ProgressEvery, Epsilon) are excluded; everything else that shapes
// the run participates. A non-nil Items slice is keyed by CONTENT —
// two independent hashes plus the length — never by slice identity:
// a run's result depends only on the candidate values, callers'
// slices are defensively copied at submission (Options.fill), and
// identity keys would both under-share equal-content slices and
// mis-share a reused backing array whose contents changed.
func runFingerprint(group []dataset.UserID, o *Options) string {
	var arr [128]byte
	return string(appendRunFingerprint(arr[:0], group, o))
}

// itemsHash2 is the second, independent hash over a candidate slice
// (the first is cf.FingerprintItems' FNV-1a): a polynomial rolling
// hash with a distinct modulus-free multiplier. Colliding on both
// hashes AND the length simultaneously is what a false share would
// require.
func itemsHash2(items []dataset.ItemID) uint64 {
	var h uint64 = 1469598103934665603
	for _, it := range items {
		h = h*0x9E3779B97F4A7C15 + uint64(it) + 1
	}
	return h
}

// appendRunFingerprint appends the canonical fingerprint to b — the
// building block shared by the mux key and the batch dedup key (which
// extends it with the fields that are per-subscriber here but
// result-shaping there).
func appendRunFingerprint(b []byte, group []dataset.UserID, o *Options) []byte {
	for _, u := range group {
		b = strconv.AppendInt(b, int64(u), 10)
		b = append(b, ',')
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.K), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.Consensus.Pref), 10)
	b = append(b, ',')
	b = strconv.AppendInt(b, int64(o.Consensus.Dis), 10)
	b = append(b, ',')
	b = strconv.AppendUint(b, math.Float64bits(o.Consensus.W1), 16)
	b = append(b, ',')
	b = strconv.AppendUint(b, math.Float64bits(o.Consensus.W2), 16)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.TimeModel), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.Period), 10)
	b = append(b, '|')
	if o.Items == nil {
		b = append(b, 'n')
	} else {
		b = strconv.AppendUint(b, cf.FingerprintItems(o.Items), 16)
		b = append(b, ':')
		b = strconv.AppendUint(b, itemsHash2(o.Items), 16)
		b = append(b, ':')
		b = strconv.AppendInt(b, int64(len(o.Items)), 10)
	}
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.NumItems), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.Mode), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(o.CheckInterval), 10)
	b = append(b, '|')
	if o.MonolithicAffinityLists {
		b = append(b, 'M')
	}
	if o.LooseBounds {
		b = append(b, 'L')
	}
	return b
}
