package core

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/consensus"
)

// runnerModes are the modes the anytime Runner supports.
var runnerModes = []Mode{ModeGRECA, ModeThresholdExact, ModeFullScan, ModeTA}

// TestRunnerFinalMatchesRun pins the Runner's stepped execution
// bit-identical to the closed-loop Run across all modes and all three
// consensus families (AP, MO, PD) — results, stats, and the final
// snapshot all agree.
func TestRunnerFinalMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, spec := range specs() {
		for _, mode := range runnerModes {
			in := randomInput(rng, 4, 60, 3, 5, spec, DiscreteAggregator{Periods: 3})
			ref, err := NewProblem(in)
			if err != nil {
				t.Fatalf("NewProblem: %v", err)
			}
			want, err := ref.Run(mode)
			if err != nil {
				t.Fatalf("%v/%v: Run: %v", spec, mode, err)
			}

			prob, err := NewProblem(in)
			if err != nil {
				t.Fatalf("NewProblem: %v", err)
			}
			r, err := prob.Runner(mode)
			if err != nil {
				t.Fatalf("%v/%v: Runner: %v", spec, mode, err)
			}
			if _, err := r.Result(); err == nil {
				t.Fatalf("%v/%v: Result before Done did not error", spec, mode)
			}
			steps := 0
			for !r.Step(1) {
				steps++
				if steps > 1_000_000 {
					t.Fatalf("%v/%v: runner did not terminate", spec, mode)
				}
			}
			got, err := r.Result()
			if err != nil {
				t.Fatalf("%v/%v: Result: %v", spec, mode, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v/%v: stepped result differs from Run:\n got %+v\nwant %+v", spec, mode, got, want)
			}
			snap := r.Snapshot()
			if !snap.Done {
				t.Errorf("%v/%v: final snapshot not Done", spec, mode)
			}
			if len(snap.TopK) != len(want.TopK) {
				t.Fatalf("%v/%v: final snapshot has %d items, Run %d", spec, mode, len(snap.TopK), len(want.TopK))
			}
			for i, si := range snap.TopK {
				is := want.TopK[i]
				if si.Key != is.Key || si.LB != is.LB || si.UB != is.UB {
					t.Errorf("%v/%v: snapshot[%d] = %+v, Run %+v", spec, mode, i, si, is)
				}
				if si.Resolved != (is.LB == is.UB) {
					t.Errorf("%v/%v: snapshot[%d].Resolved = %v with LB=%g UB=%g", spec, mode, i, si.Resolved, is.LB, is.UB)
				}
			}
			if snap.BoundGap() != 0 {
				t.Errorf("%v/%v: done snapshot has bound gap %g", spec, mode, snap.BoundGap())
			}
		}
	}
}

// TestRunnerSnapshotsMonotone asserts the anytime contract: across
// steps, an item's lower bound never decreases and its upper bound
// never increases, and the run's stats only grow.
func TestRunnerSnapshotsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, spec := range specs() {
		in := randomInput(rng, 3, 80, 2, 6, spec, DiscreteAggregator{Periods: 2})
		in.CheckInterval = 2
		prob, err := NewProblem(in)
		if err != nil {
			t.Fatalf("NewProblem: %v", err)
		}
		r, err := prob.Runner(ModeGRECA)
		if err != nil {
			t.Fatalf("Runner: %v", err)
		}
		type bounds struct{ lb, ub float64 }
		last := map[int]bounds{}
		prevAccesses, prevChecks := 0, 0
		for !r.Done() {
			r.Step(1)
			snap := r.Snapshot()
			if snap.Stats.SequentialAccesses < prevAccesses || snap.Stats.Checks < prevChecks {
				t.Fatalf("%v: stats went backward: %+v", spec, snap.Stats)
			}
			prevAccesses, prevChecks = snap.Stats.SequentialAccesses, snap.Stats.Checks
			for _, si := range snap.TopK {
				if si.UB < si.LB {
					t.Fatalf("%v: item %d has UB %g < LB %g", spec, si.Key, si.UB, si.LB)
				}
				if b, ok := last[si.Key]; ok {
					if si.LB < b.lb {
						t.Errorf("%v: item %d LB decreased %g -> %g", spec, si.Key, b.lb, si.LB)
					}
					if si.UB > b.ub {
						t.Errorf("%v: item %d UB increased %g -> %g", spec, si.Key, b.ub, si.UB)
					}
				}
				last[si.Key] = bounds{si.LB, si.UB}
			}
			if si := snap.TopK; !snap.Done {
				for i := 1; i < len(si); i++ {
					if si[i].LB > si[i-1].LB {
						t.Fatalf("%v: snapshot not sorted by LB at %d", spec, i)
					}
				}
			}
		}
	}
}

// TestRunnerStepGranularity: for GRECA one step is exactly one
// stopping check, so checks advance by one per step.
func TestRunnerStepGranularity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	in := randomInput(rng, 3, 50, 2, 4, consensus.AP(), DiscreteAggregator{Periods: 2})
	in.CheckInterval = 3
	prob, err := NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	r, err := prob.Runner(ModeGRECA)
	if err != nil {
		t.Fatalf("Runner: %v", err)
	}
	prev := 0
	for !r.Done() {
		r.Step(1)
		snap := r.Snapshot()
		if got := snap.Stats.Checks - prev; got != 1 {
			t.Fatalf("one Step advanced %d checks (total %d)", got, snap.Stats.Checks)
		}
		prev = snap.Stats.Checks
		if !snap.Done && snap.Stats.Rounds%in.CheckInterval != 0 {
			t.Fatalf("step returned off a check boundary: %d rounds, interval %d", snap.Stats.Rounds, in.CheckInterval)
		}
	}
	// Step with a batch size covers multiple checks at once.
	prob2, _ := NewProblem(in)
	r2, err := prob2.Runner(ModeGRECA)
	if err != nil {
		t.Fatalf("Runner: %v", err)
	}
	r2.Step(1 << 30)
	if !r2.Done() {
		t.Fatal("large Step did not run to completion")
	}
	res1, _ := r.Result()
	res2, _ := r2.Result()
	if !reflect.DeepEqual(res1, res2) {
		t.Error("step-by-1 and step-by-many results differ")
	}
}

// TestRunnerBoundGapEvaluated: before the stopping bounds have been
// computed, BoundGap reports +Inf — never 0, which would read as
// convergence — and once the run is done it reports exactly 0. GRECA
// evaluates at its first check; full-scan never evaluates until done.
func TestRunnerBoundGapEvaluated(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	in := randomInput(rng, 3, 40, 2, 4, consensus.AP(), DiscreteAggregator{Periods: 2})

	prob, err := NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	r, err := prob.Runner(ModeFullScan)
	if err != nil {
		t.Fatalf("Runner: %v", err)
	}
	if gap := r.Snapshot().BoundGap(); !math.IsInf(gap, 1) {
		t.Errorf("full-scan pre-run gap = %g, want +Inf", gap)
	}
	r.Step(1)
	if snap := r.Snapshot(); !snap.Done && !math.IsInf(snap.BoundGap(), 1) {
		t.Errorf("full-scan mid-run gap = %g, want +Inf", snap.BoundGap())
	}
	for !r.Step(1) {
	}
	if gap := r.Snapshot().BoundGap(); gap != 0 {
		t.Errorf("done gap = %g, want 0", gap)
	}

	prob2, _ := NewProblem(in)
	g, err := prob2.Runner(ModeGRECA)
	if err != nil {
		t.Fatalf("Runner: %v", err)
	}
	if gap := g.Snapshot().BoundGap(); !math.IsInf(gap, 1) {
		t.Errorf("GRECA pre-run gap = %g, want +Inf", gap)
	}
	g.Step(1)
	if snap := g.Snapshot(); !snap.Evaluated {
		t.Error("GRECA first check did not evaluate the stopping bounds")
	} else if math.IsInf(snap.BoundGap(), 1) {
		t.Error("GRECA evaluated snapshot still reports +Inf")
	}
}

// TestRunnerEarlyAbandon: dropping a Runner mid-run is safe and a new
// Runner on the same Problem starts clean (cursors rewound).
func TestRunnerEarlyAbandon(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	in := randomInput(rng, 3, 60, 2, 5, consensus.AP(), DiscreteAggregator{Periods: 2})
	prob, err := NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	want, err := prob.Run(ModeGRECA)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}

	r, err := prob.Runner(ModeGRECA)
	if err != nil {
		t.Fatalf("Runner: %v", err)
	}
	r.Step(2) // abandon after two checks
	snap := r.Snapshot()
	if snap.Done {
		t.Skip("run finished in two checks; nothing to abandon")
	}
	if snap.Stats.Checks != 2 {
		t.Fatalf("snapshot has %d checks, want 2", snap.Stats.Checks)
	}

	again, err := prob.Run(ModeGRECA)
	if err != nil {
		t.Fatalf("Run after abandoned Runner: %v", err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Error("Run after abandoned Runner differs from fresh Run")
	}
}

// TestRunnerReleasedProblem: a Released problem refuses to build a
// Runner, exactly like Run refuses to execute.
func TestRunnerReleasedProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomViewInput(rng, 2, 20, 3, consensus.PD(0.8), DiscreteAggregator{Periods: 2}, false)
	vs := randomViewSet(rng, in)
	prob, err := NewProblemFromViews(in, vs)
	if err != nil {
		t.Fatalf("NewProblemFromViews: %v", err)
	}
	prob.Release()
	if _, err := prob.Runner(ModeGRECA); err == nil {
		t.Error("Runner on a released problem did not error")
	}
}
