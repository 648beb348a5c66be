package repro_test

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dataset"
)

var (
	ctxWorldOnce sync.Once
	ctxWorld     *repro.World
	ctxWorldErr  error
)

func contextWorld(t *testing.T) *repro.World {
	t.Helper()
	ctxWorldOnce.Do(func() {
		cfg := repro.QuickConfig()
		ctxWorld, ctxWorldErr = repro.NewWorld(cfg)
	})
	if ctxWorldErr != nil {
		t.Fatalf("building world: %v", ctxWorldErr)
	}
	return ctxWorld
}

// slowOpt makes a run with many stopping checks: a large candidate
// pool with per-round checks keeps the Runner stepping long enough to
// cancel mid-flight deterministically.
func slowOpt() repro.Options {
	return repro.Options{K: 10, NumItems: 1000, CheckInterval: 1}
}

// TestRecommendContextBitIdenticalToRun pins the differential
// acceptance: RecommendContext under a background context produces
// exactly the result of assembling the problem and running the closed
// loop — items, bounds, stats — for all three consensus families.
func TestRecommendContextBitIdenticalToRun(t *testing.T) {
	w := contextWorld(t)
	group := w.Participants()[:3]
	for _, opt := range []repro.Options{
		{K: 5, NumItems: 300},
		{K: 5, NumItems: 300, Consensus: consensus.MO()},
		{K: 5, NumItems: 300, Consensus: consensus.PD(0.8)},
	} {
		rec, err := w.RecommendContext(context.Background(), group, opt)
		if err != nil {
			t.Fatalf("RecommendContext: %v", err)
		}
		if rec.Partial {
			t.Fatal("complete run marked Partial")
		}
		prob, items, err := w.BuildProblem(group, opt)
		if err != nil {
			t.Fatalf("BuildProblem: %v", err)
		}
		res, err := prob.Run(opt.Mode)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		if len(rec.Items) != len(res.TopK) {
			t.Fatalf("got %d items, Run produced %d", len(rec.Items), len(res.TopK))
		}
		for i, is := range res.TopK {
			got := rec.Items[i]
			if got.Item != items[is.Key] || got.Score != is.LB || got.UpperBound != is.UB {
				t.Errorf("item %d: ctx form %+v, Run (%v, %g, %g)", i, got, items[is.Key], is.LB, is.UB)
			}
		}
		if rec.Stats != res.Stats {
			t.Errorf("stats diverge: ctx %+v, Run %+v", rec.Stats, res.Stats)
		}
	}
}

// TestRecommendContextCancelledBeforeStart: an already-cancelled
// context returns immediately with the context error and an empty
// partial snapshot.
func TestRecommendContextCancelledBeforeStart(t *testing.T) {
	w := contextWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec, err := w.RecommendContext(ctx, w.Participants()[:3], slowOpt())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rec == nil || !rec.Partial {
		t.Fatalf("want a partial recommendation, got %+v", rec)
	}
	if rec.Stats.Stop != core.StopCancelled {
		t.Errorf("Stop = %v, want cancelled", rec.Stats.Stop)
	}
	if rec.Stats.Checks != 0 {
		t.Errorf("pre-cancelled run performed %d checks", rec.Stats.Checks)
	}
}

// TestRecommendStreamCancelMidRun cancels the context from inside the
// first progress callback and asserts the run stops within one check
// interval, returning the partial snapshot it had.
func TestRecommendStreamCancelMidRun(t *testing.T) {
	w := contextWorld(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var checksAtCancel int
	frames := 0
	rec, err := w.RecommendStream(ctx, w.Participants()[:3], slowOpt(), func(p repro.Progress) bool {
		frames++
		if frames == 1 {
			checksAtCancel = p.Stats.Checks
			cancel()
		}
		return true
	})
	if err == nil {
		t.Skip("run completed before the cancel was observed")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rec == nil || !rec.Partial {
		t.Fatalf("want partial recommendation, got %+v", rec)
	}
	// Cancellation is observed before the next step: at most one more
	// check can complete after the cancelling callback returns.
	if rec.Stats.Checks > checksAtCancel+1 {
		t.Errorf("run kept going: %d checks after cancelling at %d", rec.Stats.Checks, checksAtCancel)
	}
	if rec.Stats.Stop != core.StopCancelled {
		t.Errorf("Stop = %v, want cancelled", rec.Stats.Stop)
	}
}

// TestRecommendStreamConsumerStop: a consumer returning false stops
// the run early with a partial result and no error.
func TestRecommendStreamConsumerStop(t *testing.T) {
	w := contextWorld(t)
	frames := 0
	rec, err := w.RecommendStream(context.Background(), w.Participants()[:3], slowOpt(), func(p repro.Progress) bool {
		frames++
		return frames < 2
	})
	if err != nil {
		t.Fatalf("consumer stop returned error: %v", err)
	}
	if frames > 2 {
		t.Errorf("fn called %d times after stopping at 2", frames)
	}
	if rec == nil {
		t.Fatal("nil recommendation")
	}
	if !rec.Partial && frames == 2 {
		t.Error("stopped run not marked Partial")
	}
}

// TestRecommendStreamProgressMonotone: across frames, per-item lower
// bounds never decrease, upper bounds never increase, and the terminal
// frame matches the returned recommendation.
func TestRecommendStreamProgressMonotone(t *testing.T) {
	w := contextWorld(t)
	type bound struct{ lb, ub float64 }
	last := map[dataset.ItemID]bound{}
	var final repro.Progress
	frames := 0
	rec, err := w.RecommendStream(context.Background(), w.Participants()[:3], slowOpt(), func(p repro.Progress) bool {
		frames++
		for _, it := range p.Items {
			if b, ok := last[it.Item]; ok {
				if it.Score < b.lb {
					t.Errorf("item %d LB decreased %g -> %g", it.Item, b.lb, it.Score)
				}
				if it.UpperBound > b.ub {
					t.Errorf("item %d UB increased %g -> %g", it.Item, b.ub, it.UpperBound)
				}
			}
			last[it.Item] = bound{it.Score, it.UpperBound}
			if it.Resolved != (it.Score == it.UpperBound) {
				t.Errorf("item %d Resolved=%v with bounds [%g,%g]", it.Item, it.Resolved, it.Score, it.UpperBound)
			}
		}
		if p.Done {
			final = p
			final.Items = append([]repro.ProgressItem(nil), p.Items...)
		}
		return true
	})
	if err != nil {
		t.Fatalf("RecommendStream: %v", err)
	}
	if frames < 2 {
		t.Fatalf("only %d frames; want at least a progress and a terminal frame", frames)
	}
	if !final.Done {
		t.Fatal("no terminal frame observed")
	}
	if len(final.Items) != len(rec.Items) {
		t.Fatalf("terminal frame has %d items, result %d", len(final.Items), len(rec.Items))
	}
	for i, it := range final.Items {
		if it.Item != rec.Items[i].Item || it.Score != rec.Items[i].Score {
			t.Errorf("terminal frame item %d = %+v, result %+v", i, it, rec.Items[i])
		}
	}
	if final.BoundGap() != 0 {
		t.Errorf("terminal frame bound gap %g", final.BoundGap())
	}
}

// TestRecommendStreamIdenticalCallsRunIndependently pins the request
// path's isolation: concurrent RecommendStream calls with identical
// group and options each run on their own goroutine, so a consumer
// blocked in fn holds up nobody else. (While identical calls shared one
// runner, the second call could not return before the first call's fn
// did.) Both settle with exactly the solo run's result.
func TestRecommendStreamIdenticalCallsRunIndependently(t *testing.T) {
	w := contextWorld(t)
	group := w.Participants()[:3]
	opt := repro.Options{K: 5, NumItems: 300}
	solo, err := w.RecommendContext(context.Background(), group, opt)
	if err != nil {
		t.Fatalf("solo run: %v", err)
	}

	type outcome struct {
		rec *repro.Recommendation
		err error
	}
	var (
		parkedOnce     sync.Once
		parked         = make(chan struct{}) // the first call is inside fn
		secondReturned = make(chan struct{})
		first, second  = make(chan outcome, 1), make(chan outcome, 1)
	)
	go func() {
		rec, err := w.RecommendStream(context.Background(), group, opt, func(repro.Progress) bool {
			parkedOnce.Do(func() { close(parked) })
			<-secondReturned
			return true
		})
		first <- outcome{rec, err}
	}()
	<-parked
	go func() {
		rec, err := w.RecommendStream(context.Background(), group, opt, func(repro.Progress) bool { return true })
		second <- outcome{rec, err}
	}()

	select {
	case got := <-second:
		if got.err != nil {
			t.Fatalf("second call: %v", got.err)
		}
		if !reflect.DeepEqual(got.rec, solo) {
			t.Errorf("second call diverged from the solo run")
		}
	case <-time.After(10 * time.Second):
		close(secondReturned) // release the first call before failing
		t.Fatal("second call still running: it waits on the first call's blocked consumer")
	}
	close(secondReturned)
	got := <-first
	if got.err != nil {
		t.Fatalf("first call: %v", got.err)
	}
	if !reflect.DeepEqual(got.rec, solo) {
		t.Errorf("first call diverged from the solo run")
	}
}

// TestRecommendBatchContextDeadline runs a deadline-bounded sweep
// under the race detector: every slot ends with exactly one of
// recommendation or error, and once the deadline expires the
// remaining slots fail fast with DeadlineExceeded.
func TestRecommendBatchContextDeadline(t *testing.T) {
	w := contextWorld(t)
	parts := w.Participants()
	reqs := make([]repro.Request, 24)
	for i := range reqs {
		g := []dataset.UserID{parts[i%8], parts[(i+9)%16], parts[(i+20)%32]}
		reqs[i] = repro.Request{Group: g, Options: slowOpt()}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	results := w.RecommendBatchContext(ctx, reqs)
	if len(results) != len(reqs) {
		t.Fatalf("%d results for %d requests", len(results), len(reqs))
	}
	cancelled := 0
	for i, res := range results {
		if (res.Recommendation == nil) == (res.Err == nil) {
			t.Fatalf("slot %d: want exactly one of recommendation/error, got %+v", i, res)
		}
		if res.Err != nil {
			if !errors.Is(res.Err, context.DeadlineExceeded) {
				t.Errorf("slot %d: err %v, want DeadlineExceeded", i, res.Err)
			}
			cancelled++
		}
	}
	t.Logf("deadline sweep: %d/%d slots cancelled", cancelled, len(reqs))

	// The same sweep uncancelled completes every slot.
	for i, res := range w.RecommendBatchContext(context.Background(), reqs) {
		if res.Err != nil {
			t.Fatalf("background sweep slot %d failed: %v", i, res.Err)
		}
	}
}
