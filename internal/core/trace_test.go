package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/consensus"
)

func TestRunTracedMatchesRun(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 10; trial++ {
		in := randomInput(rng, 3, 150, 3, 5, consensus.AP(), DiscreteAggregator{Periods: 3})
		prob, err := NewProblem(in)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := prob.Run(ModeGRECA)
		if err != nil {
			t.Fatal(err)
		}
		var points []TracePoint
		traced, err := prob.RunTraced(func(tp TracePoint) { points = append(points, tp) })
		if err != nil {
			t.Fatal(err)
		}
		if plain.Stats != traced.Stats {
			t.Fatalf("trial %d: stats diverge: %+v vs %+v", trial, plain.Stats, traced.Stats)
		}
		if len(plain.TopK) != len(traced.TopK) {
			t.Fatalf("result sizes diverge")
		}
		for i := range plain.TopK {
			if plain.TopK[i] != traced.TopK[i] {
				t.Fatalf("trial %d: item %d diverges: %+v vs %+v", trial, i, plain.TopK[i], traced.TopK[i])
			}
		}
		if len(points) == 0 {
			t.Fatalf("no trace points emitted")
		}
	}
}

// TestTraceThresholdMonotone asserts the paper's Lemma 2 ingredient:
// "due to the monotonicity property of the consensus function, global
// threshold decreases gradually". The emitted threshold must be
// non-increasing over rounds.
func TestTraceThresholdMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(62))
	in := randomInput(rng, 4, 300, 2, 8, consensus.AP(), DiscreteAggregator{Periods: 2})
	prob, err := NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	var prev = 1e18
	_, err = prob.RunTraced(func(tp TracePoint) {
		if tp.Threshold > prev+1e-9 {
			t.Errorf("threshold rose at round %d: %.9f -> %.9f", tp.Round, prev, tp.Threshold)
		}
		prev = tp.Threshold
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTraceKthLBMonotone: the k-th lower bound only tightens upward as
// more entries are read.
func TestTraceKthLBMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	in := randomInput(rng, 3, 300, 2, 8, consensus.PD(0.5), DiscreteAggregator{Periods: 2})
	prob, err := NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1e18
	_, err = prob.RunTraced(func(tp TracePoint) {
		if tp.KthLB == 0 && prev <= 0 {
			return // warm-up before k candidates exist
		}
		if tp.KthLB < prev-1e-9 {
			t.Errorf("kth LB fell at round %d: %.9f -> %.9f", tp.Round, prev, tp.KthLB)
		}
		prev = tp.KthLB
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestTraceAliveShrinks: the candidate buffer never grows after the
// scan has seen every item.
func TestTraceAliveNonNegativeAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(64))
	in := randomInput(rng, 3, 120, 1, 4, consensus.AP(), DiscreteAggregator{Periods: 1})
	prob, err := NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	_, err = prob.RunTraced(func(tp TracePoint) {
		if tp.Alive < 0 || tp.Alive > 120 {
			t.Errorf("alive count %d out of range", tp.Alive)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunTracedNilObserverFallsBack(t *testing.T) {
	prob, err := NewProblem(runningExampleInput(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := prob.RunTraced(nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TopK[0].Key != 0 {
		t.Errorf("nil-observer trace returned %v", res.TopK)
	}
}

func TestPairIndexRoundTrip(t *testing.T) {
	for g := 2; g <= 12; g++ {
		seen := map[int]bool{}
		for i := 0; i < g; i++ {
			for j := i + 1; j < g; j++ {
				idx := PairIndex(g, i, j)
				if idx < 0 || idx >= NumPairs(g) {
					t.Fatalf("g=%d (%d,%d): index %d out of range", g, i, j, idx)
				}
				if seen[idx] {
					t.Fatalf("g=%d: duplicate index %d", g, idx)
				}
				seen[idx] = true
				if PairIndex(g, j, i) != idx {
					t.Fatalf("g=%d: asymmetric index for (%d,%d)", g, i, j)
				}
				a, b := pairMembers(g, idx)
				if a != i || b != j {
					t.Fatalf("g=%d: pairMembers(%d) = (%d,%d), want (%d,%d)", g, idx, a, b, i, j)
				}
			}
		}
		if len(seen) != NumPairs(g) {
			t.Fatalf("g=%d: %d indexes, want %d", g, len(seen), NumPairs(g))
		}
	}
}

func TestListCursorInvariants(t *testing.T) {
	l := newList(PrefList, 0, -1, []Entry{{Key: 2, Value: 0.5}, {Key: 0, Value: 0.9}, {Key: 1, Value: 0.5}})
	// Sorted desc, ties by key.
	if l.Entries[0].Key != 0 || l.Entries[1].Key != 1 || l.Entries[2].Key != 2 {
		t.Fatalf("sort order wrong: %+v", l.Entries)
	}
	if l.MinValue != 0.5 {
		t.Errorf("MinValue = %v", l.MinValue)
	}
	if l.CursorValue() != 0.9 {
		t.Errorf("pre-read cursor should be the max, got %v", l.CursorValue())
	}
	prev := 2.0
	for {
		e, ok := l.Next()
		if !ok {
			break
		}
		if e.Value > prev {
			t.Fatalf("values not non-increasing")
		}
		prev = e.Value
		if l.CursorValue() != e.Value {
			t.Fatalf("cursor %v != last read %v", l.CursorValue(), e.Value)
		}
	}
	if !l.Exhausted() || l.pos != 3 {
		t.Errorf("exhaustion state wrong")
	}
	l.reset()
	if l.pos != 0 || l.Exhausted() {
		t.Errorf("reset did not rewind")
	}
}

// pairMembers inverts PairIndex for an index in [0, NumPairs(g)).
func pairMembers(g, idx int) (int, int) {
	for i := 0; i < g-1; i++ {
		rowLen := g - i - 1
		if idx < rowLen {
			return i, i + 1 + idx
		}
		idx -= rowLen
	}
	panic(fmt.Sprintf("pair index past NumPairs(%d)", g))
}
