package repro

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dataset"
)

// muxTestConfig is a small world so the -race matrix stays fast.
func muxTestConfig() Config {
	cfg := QuickConfig()
	cfg.Dataset.Users = 150
	cfg.Dataset.TargetRatings = 10_000
	cfg.Dataset.Items = 500
	return cfg
}

// waitShared polls the mux counters until at least n joins have
// attached to in-flight runs (counted since the test's baseline).
func waitShared(t *testing.T, w *World, base MuxStats, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if w.MuxStats().Shared-base.Shared >= n {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("only %d of %d joins attached before deadline", w.MuxStats().Shared-base.Shared, n)
}

// TestMuxSharesIdenticalRuns is the acceptance check for the
// multiplexer: N identical concurrent requests execute exactly one
// full run — the hit counter records N−1 shared joins — and every
// caller settles with the byte-identical result of the single shared
// runner.
func TestMuxSharesIdenticalRuns(t *testing.T) {
	w, err := NewWorld(muxTestConfig())
	if err != nil {
		t.Fatalf("building world: %v", err)
	}
	group := w.Participants()[:3]
	opt := Options{K: 5, NumItems: 200}
	base := w.MuxStats()

	const sharers = 4
	results := make([]*Recommendation, sharers)
	errs := make([]error, sharers)
	var wg sync.WaitGroup
	var spawned bool
	// The first subscriber's progress callback holds the shared run
	// parked while it spawns the identical callers and waits for all
	// of them to attach — deterministic sharing without sleeps.
	lead, err := w.RecommendStream(context.Background(), group, opt, func(Progress) bool {
		if spawned {
			return true
		}
		spawned = true
		for i := 0; i < sharers; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = w.RecommendContext(context.Background(), group, opt)
			}(i)
		}
		waitShared(t, w, base, sharers)
		return true
	})
	if err != nil {
		t.Fatalf("lead stream: %v", err)
	}
	wg.Wait()

	st := w.MuxStats()
	if got := st.Runs - base.Runs; got != 1 {
		t.Errorf("identical concurrent requests drove %d runs, want 1", got)
	}
	if got := st.Shared - base.Shared; got != sharers {
		t.Errorf("hit counter recorded %d shared joins, want %d", got, sharers)
	}
	for i := 0; i < sharers; i++ {
		if errs[i] != nil {
			t.Fatalf("sharer %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], lead) {
			t.Errorf("sharer %d diverged from the shared run's result", i)
		}
	}
	// The shared result must also be byte-identical to the unshared
	// path (runs are deterministic, so a later solo run reproduces it).
	want, err := w.recommendStreamDirect(context.Background(), group, opt, nil)
	if err != nil {
		t.Fatalf("direct run: %v", err)
	}
	if !reflect.DeepEqual(lead, want) {
		t.Errorf("shared run result diverged from the unshared path")
	}
}

// TestMuxMatchesDirectAcrossOptions pins the multiplexed single-caller
// path to recommendStreamDirect byte-for-byte across consensus
// functions, modes, and progress thinning — the mux's solo loop must
// replicate the unshared loop exactly.
func TestMuxMatchesDirectAcrossOptions(t *testing.T) {
	w, err := NewWorld(muxTestConfig())
	if err != nil {
		t.Fatalf("building world: %v", err)
	}
	parts := w.Participants()
	opts := []Options{
		{K: 5, NumItems: 200},
		{K: 5, NumItems: 200, Consensus: consensus.MO()},
		{K: 4, NumItems: 150, Consensus: consensus.PD(0.8)},
		{K: 4, NumItems: 150, Mode: core.ModeTA},
		{K: 3, NumItems: 120, ProgressEvery: 7},
		{K: 3, NumItems: 120, Epsilon: 0.05},
	}
	for i, opt := range opts {
		group := parts[i%3 : i%3+3]
		var directFrames, muxFrames []Progress
		collect := func(sink *[]Progress) func(Progress) bool {
			return func(p Progress) bool {
				*sink = append(*sink, p)
				return true
			}
		}
		want, err := w.recommendStreamDirect(context.Background(), group, opt, collect(&directFrames))
		if err != nil {
			t.Fatalf("opt %d direct: %v", i, err)
		}
		got, err := w.RecommendStream(context.Background(), group, opt, collect(&muxFrames))
		if err != nil {
			t.Fatalf("opt %d mux: %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("opt %d: mux result diverged from direct", i)
		}
		if !reflect.DeepEqual(muxFrames, directFrames) {
			t.Errorf("opt %d: mux frames diverged from direct (%d vs %d frames)", i, len(muxFrames), len(directFrames))
		}
	}
}

// TestMuxIndependentThinningAndEpsilon runs three subscribers on one
// shared run — dense frames, 5× thinned frames, and an ε policy — and
// checks each got its own treatment: thinning applied per subscriber,
// the ε subscriber detaching early with StopEpsilon while the exact
// subscribers run to the terminal frame.
func TestMuxIndependentThinningAndEpsilon(t *testing.T) {
	w, err := NewWorld(muxTestConfig())
	if err != nil {
		t.Fatalf("building world: %v", err)
	}
	group := w.Participants()[:3]
	opt := Options{K: 5, NumItems: 200}
	base := w.MuxStats()

	var denseFrames, thinFrames int
	var thinRec, epsRec *Recommendation
	var thinErr, epsErr error
	var wg sync.WaitGroup
	var spawned bool
	dense, err := w.RecommendStream(context.Background(), group, opt, func(p Progress) bool {
		denseFrames++
		if spawned {
			return true
		}
		spawned = true
		wg.Add(2)
		go func() {
			defer wg.Done()
			thinOpt := opt
			thinOpt.ProgressEvery = 5
			thinRec, thinErr = w.RecommendStream(context.Background(), group, thinOpt, func(Progress) bool {
				thinFrames++
				return true
			})
		}()
		go func() {
			defer wg.Done()
			epsOpt := opt
			epsOpt.Epsilon = 0.25
			epsRec, epsErr = w.RecommendContext(context.Background(), group, epsOpt)
		}()
		waitShared(t, w, base, 2)
		return true
	})
	if err != nil {
		t.Fatalf("dense stream: %v", err)
	}
	wg.Wait()

	if got := w.MuxStats().Runs - base.Runs; got != 1 {
		t.Errorf("three subscribers drove %d runs, want 1", got)
	}
	if thinErr != nil || epsErr != nil {
		t.Fatalf("subscriber errors: thin=%v eps=%v", thinErr, epsErr)
	}
	if denseFrames < 2 {
		t.Fatalf("dense subscriber saw %d frames; run too short to test thinning", denseFrames)
	}
	if thinFrames >= denseFrames {
		t.Errorf("thinned subscriber saw %d frames, dense saw %d — thinning not independent", thinFrames, denseFrames)
	}
	if !reflect.DeepEqual(thinRec, dense) {
		t.Errorf("thinned subscriber's terminal result diverged from the dense one")
	}
	if epsRec.Partial != true || epsRec.Stats.Stop != core.StopEpsilon {
		t.Errorf("epsilon subscriber got Partial=%v Stop=%v, want an ε-stop partial", epsRec.Partial, epsRec.Stats.Stop)
	}
	if dense.Partial {
		t.Errorf("exact subscriber got a partial result — the ε subscriber's policy leaked into the shared run")
	}
}

// TestMuxIndependentCancellation checks that one subscriber stopping —
// via its consumer callback — detaches only itself, while the
// remaining subscriber completes; and that the last subscriber's
// cancellation abandons the run entirely.
func TestMuxIndependentCancellation(t *testing.T) {
	w, err := NewWorld(muxTestConfig())
	if err != nil {
		t.Fatalf("building world: %v", err)
	}
	group := w.Participants()[:3]
	opt := Options{K: 5, NumItems: 200}
	base := w.MuxStats()

	var quitterRec *Recommendation
	var quitterErr error
	var wg sync.WaitGroup
	var spawned bool
	stayer, err := w.RecommendStream(context.Background(), group, opt, func(Progress) bool {
		if spawned {
			return true
		}
		spawned = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The quitter's callback stops the stream on its first
			// frame; only the quitter must settle partial.
			quitterRec, quitterErr = w.RecommendStream(context.Background(), group, opt, func(Progress) bool {
				return false
			})
		}()
		waitShared(t, w, base, 1)
		return true
	})
	if err != nil {
		t.Fatalf("staying stream: %v", err)
	}
	wg.Wait()
	if quitterErr != nil {
		t.Fatalf("quitter: %v", quitterErr)
	}
	if !quitterRec.Partial || quitterRec.Stats.Stop != core.StopCancelled {
		t.Errorf("quitter got Partial=%v Stop=%v, want a cancelled partial", quitterRec.Partial, quitterRec.Stats.Stop)
	}
	if stayer.Partial {
		t.Errorf("staying subscriber got a partial result — the quitter took the run down with it")
	}

	// Last subscriber's cancel: a lone cancelled caller gets the
	// context error with a partial, and the abandoned run drains from
	// the active set.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rec, err := w.RecommendContext(ctx, group, opt)
	if err != context.Canceled {
		t.Fatalf("cancelled caller returned err %v, want context.Canceled", err)
	}
	if rec == nil || !rec.Partial || rec.Stats.Stop != core.StopCancelled {
		t.Errorf("cancelled caller got %+v, want a cancelled partial", rec)
	}
	deadline := time.Now().Add(10 * time.Second)
	for w.MuxStats().Active > 0 {
		if time.Now().After(deadline) {
			t.Fatal("abandoned run never drained from the active set")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMuxFingerprintSeparatesRuns checks the key's salient cases:
// different member order and different run-shaping options must NOT
// share (float summation is order-sensitive), while ProgressEvery and
// Epsilon differences must. Items slices are keyed by content, so
// content-equal but distinct slices share and same-length different
// contents do not.
func TestMuxFingerprintSeparatesRuns(t *testing.T) {
	g1 := []dataset.UserID{10, 20, 30}
	g2 := []dataset.UserID{20, 10, 30}
	optA := Options{K: 5, NumItems: 200}
	if err := optA.fill(); err != nil {
		t.Fatal(err)
	}
	base := runFingerprint(g1, &optA)
	if got := runFingerprint(g2, &optA); got == base {
		t.Errorf("member order ignored by fingerprint — order-sensitive float sums would be shared")
	}
	optB := optA
	optB.K = 6
	if got := runFingerprint(g1, &optB); got == base {
		t.Errorf("K ignored by fingerprint")
	}
	optC := optA
	optC.ProgressEvery = 9
	optC.Epsilon = 0.5
	if got := runFingerprint(g1, &optC); got != base {
		t.Errorf("per-subscriber fields (ProgressEvery, Epsilon) changed the fingerprint — they must not prevent sharing")
	}
	itemsX := []dataset.ItemID{7, 8, 9}
	itemsY := []dataset.ItemID{7, 8, 9}
	optX, optY := optA, optA
	optX.Items, optY.Items = itemsX, itemsY
	fx := runFingerprint(g1, &optX)
	if fy := runFingerprint(g1, &optY); fy != fx {
		t.Errorf("content-equal distinct Items slices did not share a fingerprint — content keying violated")
	}
	optZ := optA
	optZ.Items = []dataset.ItemID{7, 8, 10}
	if fz := runFingerprint(g1, &optZ); fz == fx {
		t.Errorf("same-length different Items contents shared a fingerprint")
	}
	optN := optA
	optN.Items = []dataset.ItemID{}
	if fn := runFingerprint(g1, &optN); fn == base {
		t.Errorf("empty non-nil Items fingerprinted like nil Items — they select different candidate paths")
	}
}
