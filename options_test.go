package repro_test

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro"
	"repro/internal/dataset"
)

var (
	optWorldOnce sync.Once
	optWorld     *repro.World
	optWorldErr  error
)

// optionsWorld is a small shared world for validation tests.
func optionsWorld(t *testing.T) *repro.World {
	t.Helper()
	optWorldOnce.Do(func() {
		cfg := repro.QuickConfig()
		cfg.Dataset.Users = 120
		cfg.Dataset.TargetRatings = 8_000
		cfg.Dataset.Items = 400
		optWorld, optWorldErr = repro.NewWorld(cfg)
	})
	if optWorldErr != nil {
		t.Fatalf("building world: %v", optWorldErr)
	}
	return optWorld
}

// lightGroup picks n participants with modest rating histories, so the
// candidate pool of the small test catalog is never legitimately empty.
func lightGroup(t *testing.T, w *repro.World, n int) []dataset.UserID {
	t.Helper()
	var group []dataset.UserID
	for _, u := range w.Participants() {
		if c := w.Ratings().Row(u).Len(); c > 0 && c < 100 {
			group = append(group, u)
			if len(group) == n {
				return group
			}
		}
	}
	t.Fatalf("only %d light-history participants, need %d", len(group), n)
	return nil
}

func TestRecommendRejectsInvalidOptions(t *testing.T) {
	w := optionsWorld(t)
	group := lightGroup(t, w, 3)
	tests := []struct {
		name    string
		group   []dataset.UserID
		opt     repro.Options
		wantErr string
	}{
		{"negative K", group, repro.Options{K: -1, NumItems: 100}, "negative K"},
		{"very negative K", group, repro.Options{K: -50, NumItems: 100}, "negative K"},
		{"negative NumItems", group, repro.Options{NumItems: -3900}, "negative NumItems"},
		{"both negative", group, repro.Options{K: -2, NumItems: -7}, "negative K"},
		{"negative CheckInterval", group, repro.Options{NumItems: 100, CheckInterval: -1}, "negative CheckInterval"},
		{"negative ProgressEvery", group, repro.Options{NumItems: 100, ProgressEvery: -3}, "negative ProgressEvery"},
		{"empty group", nil, repro.Options{NumItems: 100}, "empty group"},
		{"duplicate member", []dataset.UserID{group[0], group[1], group[0]}, repro.Options{NumItems: 100}, "duplicate group member"},
		{"period too large", group, repro.Options{NumItems: 100, Period: 999}, "period"},
		{"negative period", group, repro.Options{NumItems: 100, Period: -2}, "period"},
		{"K exceeds candidates", group, repro.Options{K: 101, NumItems: 100}, "exceeds candidate count"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := w.Recommend(tc.group, tc.opt)
			if err == nil {
				t.Fatalf("Recommend accepted %+v", tc.opt)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			// BuildProblem shares the validation path.
			if _, _, err := w.BuildProblem(tc.group, tc.opt); err == nil {
				t.Errorf("BuildProblem accepted %+v", tc.opt)
			}
		})
	}
}

func TestRecommendBatchPropagatesValidationErrors(t *testing.T) {
	w := optionsWorld(t)
	group := lightGroup(t, w, 2)
	results := w.RecommendBatchContext(context.Background(), []repro.Request{
		{Group: group, Options: repro.Options{K: 3, NumItems: 80}},
		{Group: group, Options: repro.Options{K: -1, NumItems: 80}},
		{Group: nil, Options: repro.Options{NumItems: 80}},
		{Group: group, Options: repro.Options{K: 3, NumItems: -4}},
	})
	if results[0].Err != nil || results[0].Recommendation == nil {
		t.Errorf("valid request failed: %v", results[0].Err)
	}
	for i, want := range map[int]string{1: "negative K", 2: "empty group", 3: "negative NumItems"} {
		if results[i].Err == nil || !strings.Contains(results[i].Err.Error(), want) {
			t.Errorf("request %d: error %v, want mention of %q", i, results[i].Err, want)
		}
		if results[i].Recommendation != nil {
			t.Errorf("request %d: got both recommendation and error", i)
		}
	}
}

func TestCandidateItemsExcludesGroupRatings(t *testing.T) {
	w := optionsWorld(t)
	// In a catalog this small the heaviest raters have rated every
	// item, which would make the candidate pool legitimately empty.
	group := lightGroup(t, w, 4)
	items := w.CandidateItems(group, 150)
	if len(items) == 0 {
		t.Fatal("no candidates")
	}
	if len(items) > 150 {
		t.Fatalf("asked for 150 candidates, got %d", len(items))
	}
	for _, it := range items {
		for _, u := range group {
			if _, rated := w.Ratings().Value(u, it); rated {
				t.Fatalf("candidate %d rated by member %d", it, u)
			}
		}
	}
	// n <= 0 returns every unrated item.
	all := w.CandidateItems(group, 0)
	if len(all) < len(items) {
		t.Errorf("unbounded candidates (%d) fewer than bounded (%d)", len(all), len(items))
	}
}
