package server

import (
	"context"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/internal/consensus"
	"repro/internal/dataset"
)

// testWorld lazily builds one small shared world for the whole
// package; the engine layers are all exercised but the -race run stays
// fast.
var (
	worldOnce sync.Once
	world     *repro.World
	worldErr  error
)

func testWorld(tb testing.TB) *repro.World {
	tb.Helper()
	worldOnce.Do(func() {
		cfg := repro.QuickConfig()
		cfg.Dataset.Users = 150
		cfg.Dataset.TargetRatings = 10_000
		cfg.Dataset.Items = 500
		world, worldErr = repro.NewWorld(cfg)
	})
	if worldErr != nil {
		tb.Fatalf("building test world: %v", worldErr)
	}
	return world
}

// blockingServe returns a fake serve func that parks every call until
// release is closed or the call's context is done, then answers with a
// result encoding the request's K option, so callers can verify they
// got their own result without a world.
func blockingServe(release <-chan struct{}) serveFunc {
	return func(ctx context.Context, _ []dataset.UserID, opt repro.Options) (*repro.Recommendation, error) {
		select {
		case <-release:
			return &repro.Recommendation{Period: opt.K}, nil
		case <-ctx.Done():
			return &repro.Recommendation{Partial: true}, ctx.Err()
		}
	}
}

// waitParked polls until the gate reports n callers in flight.
func waitParked(t *testing.T, g *Gate, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for g.Stats().Parked != n {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight callers never reached %d: %+v", n, g.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestCoalescerShedsBeyondMaxPending pins load shedding: with the
// in-flight bound reached, Submit fails fast with ErrOverloaded and the
// shed counter moves; the admitted callers still complete.
func TestCoalescerShedsBeyondMaxPending(t *testing.T) {
	release := make(chan struct{})
	g := newGate(blockingServe(release), 2)

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = g.Submit(context.Background(), repro.Request{})
		}(i)
	}
	waitParked(t, g, 2)

	if _, err := g.Submit(context.Background(), repro.Request{}); err != ErrOverloaded {
		t.Fatalf("submit beyond the bound returned %v, want ErrOverloaded", err)
	}
	if st := g.Stats(); st.Shed != 1 || st.Parked != 2 || st.Requests != 2 {
		t.Errorf("stats = %+v, want shed 1 at parked 2, requests 2", st)
	}

	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("admitted caller %d failed: %v", i, err)
		}
	}
	if st := g.Stats(); st.Parked != 0 {
		t.Errorf("parked = %d after completion, want 0", st.Parked)
	}
	g.Close()
}

// TestCoalescerMatchesDirect pins the gate to the direct path: N
// goroutines submit real single-group requests — AP, MO and PD
// consensus among them — and every result must be bit-identical to a
// sequential World.Recommend of the same request.
func TestCoalescerMatchesDirect(t *testing.T) {
	w := testWorld(t)
	parts := w.Participants()
	g := newGate(w.RecommendContext, 0)
	defer g.Close()

	reqs := []repro.Request{
		{Group: parts[:1], Options: repro.Options{K: 3, NumItems: 100}},
		{Group: parts[2:4], Options: repro.Options{K: 3, NumItems: 100, Consensus: consensus.MO()}},
		{Group: parts[1:4], Options: repro.Options{K: 4, NumItems: 120, TimeModel: repro.Continuous}},
		{Group: parts[3:8], Options: repro.Options{K: 2, NumItems: 80, TimeModel: repro.TimeAgnostic, Consensus: consensus.PD(0.8)}},
		{Group: parts[0:6], Options: repro.Options{K: 5, NumItems: 150}},
	}
	want := make([]*repro.Recommendation, len(reqs))
	for i, req := range reqs {
		rec, err := w.Recommend(req.Group, req.Options)
		if err != nil {
			t.Fatalf("sequential request %d: %v", i, err)
		}
		want[i] = rec
	}

	const rounds = 8
	var wg sync.WaitGroup
	for r := 0; r < rounds; r++ {
		for i, req := range reqs {
			wg.Add(1)
			go func(i int, req repro.Request) {
				defer wg.Done()
				res, err := g.Submit(context.Background(), req)
				if err != nil {
					t.Errorf("request %d: %v", i, err)
					return
				}
				if res.Err != nil {
					t.Errorf("request %d: %v", i, res.Err)
					return
				}
				if !reflect.DeepEqual(res.Recommendation, want[i]) {
					t.Errorf("request %d: submitted result diverged from direct Recommend", i)
				}
			}(i, req)
		}
	}
	wg.Wait()

	if st := g.Stats(); st.Requests != rounds*uint64(len(reqs)) || st.Parked != 0 {
		t.Errorf("stats = %+v, want %d requests, 0 parked", st, rounds*len(reqs))
	}

	// An engine-side rejection travels in the Result, not as the gate's
	// own error.
	res, err := g.Submit(context.Background(), repro.Request{Group: parts[:2], Options: repro.Options{K: 50, NumItems: 10}})
	if err != nil || res.Err == nil || res.Recommendation != nil {
		t.Errorf("engine rejection: result %+v, err %v; want the error inside the result", res, err)
	}
}

// TestCoalescerCloseDrains proves Close waits for the callers in
// flight — all get real results — and that later submits fail fast.
func TestCoalescerCloseDrains(t *testing.T) {
	const n = 5
	release := make(chan struct{})
	g := newGate(blockingServe(release), 0)

	var wg sync.WaitGroup
	got := make([]int, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := g.Submit(context.Background(), repro.Request{Options: repro.Options{K: i + 1}})
			if err != nil {
				t.Errorf("in-flight submit %d: %v", i, err)
				return
			}
			got[i] = res.Recommendation.Period
		}(i)
	}
	waitParked(t, g, n)

	closed := make(chan struct{})
	go func() {
		g.Close()
		close(closed)
	}()
	// Once Close has raised the flag, fresh submits are refused — and it
	// must not return while the admitted callers are still running.
	deadline := time.Now().Add(10 * time.Second)
	for began := false; !began; {
		g.mu.Lock()
		began = g.closed
		g.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatal("Close never began")
		}
		time.Sleep(100 * time.Microsecond)
	}
	if _, err := g.Submit(context.Background(), repro.Request{}); err != ErrClosed {
		t.Errorf("submit after close: err = %v, want ErrClosed", err)
	}
	select {
	case <-closed:
		t.Fatal("Close returned with callers still in flight")
	default:
	}
	close(release)
	<-closed
	wg.Wait()

	for i, v := range got {
		if v != i+1 {
			t.Errorf("caller %d drained with result %d", i+1, v)
		}
	}
	if st := g.Stats(); st.Parked != 0 {
		t.Errorf("parked = %d after drain, want 0", st.Parked)
	}
	g.Close() // idempotent
}

// TestCoalescerContextCancel proves the per-caller context contract:
// an already-cancelled caller fails fast without taking an in-flight
// slot, and a caller that gives up mid-run stops the run itself — the
// serve func sees the cancellation, the caller gets ctx's error, and
// the slot is released.
func TestCoalescerContextCancel(t *testing.T) {
	g := newGate(blockingServe(nil), 1) // only a context can end these calls
	defer g.Close()

	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := g.Submit(pre, repro.Request{}); err != context.Canceled {
		t.Errorf("submit with canceled context: err = %v, want context.Canceled", err)
	}
	if st := g.Stats(); st.Requests != 0 || st.Parked != 0 || st.Shed != 0 {
		t.Errorf("pre-cancelled submit was admitted: %+v", st)
	}

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		res, err := g.Submit(ctx, repro.Request{})
		if res.Recommendation != nil || res.Err != nil {
			t.Errorf("abandoned submit carried a result: %+v", res)
		}
		errc <- err
	}()
	waitParked(t, g, 1)
	// The only slot is taken: a pre-cancelled caller is still turned
	// away by its own context, not counted as shed.
	if _, err := g.Submit(pre, repro.Request{}); err != context.Canceled {
		t.Errorf("pre-cancelled submit at a full gate: err = %v, want context.Canceled", err)
	}
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Errorf("abandoning submit: err = %v, want context.Canceled", err)
	}
	if st := g.Stats(); st.Parked != 0 || st.Shed != 0 || st.Requests != 1 {
		t.Errorf("stats after abandon = %+v, want parked 0, shed 0, requests 1", st)
	}
}
