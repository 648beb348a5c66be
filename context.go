package repro

import (
	"context"

	"repro/internal/core"
	"repro/internal/dataset"
)

// ProgressItem is one entry of a progressive top-k snapshot: the
// item's guaranteed score bounds at this point of the run.
type ProgressItem struct {
	Item dataset.ItemID
	// Score is the guaranteed lower bound of the consensus score.
	Score float64
	// UpperBound is the guaranteed upper bound.
	UpperBound float64
	// Resolved reports that the bounds have met: the score is exact.
	Resolved bool
}

// Progress is one anytime snapshot of a streaming recommendation.
// Snapshots tighten monotonically: across frames, an item's Score
// never decreases and its UpperBound never increases, and BoundGap
// shrinks toward zero as the run converges.
type Progress struct {
	// Items is the current top-k by lower bound (fewer than K entries
	// early in the run). For an unfinished run it is the best
	// currently guaranteed itemset, not necessarily the final one.
	Items []ProgressItem
	// Round is the round-robin sweep number (Stats.Rounds).
	Round int
	// Stats is the work done so far.
	Stats core.AccessStats
	// Threshold is the best score an unseen item could still reach as
	// of the last stopping check; KthLB the k-th best guaranteed lower
	// bound. The run terminates once Threshold sinks to KthLB and the
	// buffer condition holds.
	Threshold float64
	KthLB     float64
	// Done marks the terminal frame; its Items are the final result.
	Done bool
	// gap caches core.Snapshot.BoundGap at frame construction — one
	// source of truth for the clamping rule.
	gap float64
}

// BoundGap is Threshold − KthLB clamped at 0 — the convergence
// distance still to cover (0 on the terminal frame). It is +Inf on
// frames where the stopping bounds have not been evaluated yet (the
// baseline modes reach their first threshold evaluation late; GRECA
// evaluates every check), so gap-based "good enough" consumers never
// mistake an early frame for convergence.
func (p Progress) BoundGap() float64 { return p.gap }

// RecommendContext is Recommend with a cancellation contract: ctx is
// checked between GRECA stopping checks (Options.CheckInterval rounds
// apart), so a cancelled or deadline-expired context stops the run
// within one check interval. On cancellation it returns the partial
// recommendation assembled from the bounds known so far — Partial set,
// Stats.Stop = core.StopCancelled — alongside ctx's error, so anytime
// consumers still get the best guaranteed itemset of the work already
// done. A nil-error return is a complete run unless Options.Epsilon
// requested an approximate one — epsilon stops return nil errors with
// Partial set and Stats.Stop = core.StopEpsilon, so epsilon callers
// must read Partial, not the error, to distinguish exact from
// approximate.
func (w *World) RecommendContext(ctx context.Context, group []dataset.UserID, opt Options) (*Recommendation, error) {
	return w.RecommendStream(ctx, group, opt, nil)
}

// RecommendStream is RecommendContext with progressive delivery: fn
// receives a Progress frame after every stopping check (thinned to
// every N-th by Options.ProgressEvery; skipped checks build no
// snapshot), ending with a terminal frame (Done true). Returning false
// from fn stops the run early and yields the partial recommendation
// with a nil error — the consumer's own choice is not a failure. fn
// must not retain the frame's Items slice. A nil fn degenerates to
// RecommendContext.
//
// Options.Epsilon adds bound-gap stopping on top: the first check
// certifying an ε-approximate top-k (core.Runner.EpsilonReached — the
// exact threshold + buffer conditions relaxed by ε) ends the run with
// a Partial recommendation (Stats.Stop = core.StopEpsilon) and a nil
// error. The epsilon consumer sees the converging frames like any
// other; the terminal Done frame is not emitted, since the run never
// terminates exactly.
//
// The run executes on the calling goroutine: fn is always invoked from
// it, and a slow consumer delays no call but its own.
func (w *World) RecommendStream(ctx context.Context, group []dataset.UserID, opt Options, fn func(Progress) bool) (*Recommendation, error) {
	prob, items, period, release, err := w.buildProblem(group, &opt)
	if err != nil {
		return nil, err
	}
	defer release()
	r, err := prob.Runner(opt.Mode)
	if err != nil {
		return nil, err
	}
	every := max(opt.ProgressEvery, 1)
	steps := 0
	for {
		if err := ctx.Err(); err != nil {
			return w.partialRecommendation(r.Snapshot(), items, period, core.StopCancelled), err
		}
		done := r.Step(1)
		steps++
		if fn != nil && (done || steps%every == 0) {
			snap := r.Snapshot()
			if !fn(progressFrom(snap, items)) && !done {
				return w.partialRecommendation(snap, items, period, core.StopCancelled), nil
			}
		}
		// The ε certificate is the exact stopping condition relaxed by
		// ε — threshold AND buffered upper bounds within ε of the k-th
		// lower bound — so the guarantee covers seen candidates too,
		// not just unseen items. EpsilonReached is a cheap scalar
		// compare until the run nears the stop; no snapshot is built
		// on checks that neither emit a frame nor stop.
		if r.EpsilonReached(opt.Epsilon) {
			return w.partialRecommendation(r.Snapshot(), items, period, core.StopEpsilon), nil
		}
		if done {
			break
		}
	}
	res, err := r.Result()
	if err != nil {
		return nil, err
	}
	rec := &Recommendation{Stats: res.Stats, Period: period}
	for _, is := range res.TopK {
		rec.Items = append(rec.Items, ScoredItem{
			Item:       items[is.Key],
			Score:      is.LB,
			UpperBound: is.UB,
		})
	}
	return rec, nil
}

// partialRecommendation maps an interrupted runner snapshot onto the
// facade result type, stamping why the run was cut short
// (StopCancelled for context/consumer interruption, StopEpsilon for
// the bound-gap policy).
func (w *World) partialRecommendation(snap core.Snapshot, items []dataset.ItemID, period int, stop core.StopReason) *Recommendation {
	rec := &Recommendation{Stats: snap.Stats, Period: period, Partial: true}
	rec.Stats.Stop = stop
	for _, si := range snap.TopK {
		rec.Items = append(rec.Items, ScoredItem{
			Item:       items[si.Key],
			Score:      si.LB,
			UpperBound: si.UB,
		})
	}
	return rec
}

// progressFrom maps a runner snapshot onto a wire-facing Progress.
func progressFrom(snap core.Snapshot, items []dataset.ItemID) Progress {
	p := Progress{
		Round:     snap.Stats.Rounds,
		Stats:     snap.Stats,
		Threshold: snap.Threshold,
		KthLB:     snap.KthLB,
		Done:      snap.Done,
		gap:       snap.BoundGap(),
	}
	p.Items = make([]ProgressItem, len(snap.TopK))
	for i, si := range snap.TopK {
		p.Items[i] = ProgressItem{
			Item:       items[si.Key],
			Score:      si.LB,
			UpperBound: si.UB,
			Resolved:   si.Resolved,
		}
	}
	return p
}
