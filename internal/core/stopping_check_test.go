package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

// signedAggregator is a test-only affinity model whose intervals reach
// below zero (static plus mean drift, clamped to [-1,1]): the shape the
// four-corner interval product exists for, and one under which a
// candidate's lower bound reads other members' upper ends.
type signedAggregator struct{ Periods int }

func (a signedAggregator) Combine(static stats.Interval, drifts []stats.Interval) stats.Interval {
	var lo, hi float64
	for _, d := range drifts {
		lo += d.Lo
		hi += d.Hi
	}
	n := float64(a.Periods)
	return static.Add(stats.Interval{Lo: lo / n, Hi: hi / n}).Clamp(-1, 1)
}
func (a signedAggregator) NumPeriods() int      { return a.Periods }
func (a signedAggregator) MaxAffinity() float64 { return 1 }
func (a signedAggregator) String() string       { return fmt.Sprintf("signed(%d)", a.Periods) }

// checkCase is one instance of the differential, in the raw form the
// fuzzer mutates; input maps every field into its valid range.
type checkCase struct {
	seed                        int64
	g, m, k                     uint8
	spec, agg, interval, levels uint8
	// stride is how often the observers (Snapshot, EpsilonReached) are
	// called: they re-score what they emit, so a run that is never
	// observed mid-flight must stop at the same check as one observed
	// at every step.
	stride           uint8
	partition, loose bool
}

// stoppingCheckCorpus is the fuzz target's seed corpus and the head of
// the table test: every consensus spec against every affinity model,
// both affinity layouts, both bound modes, every CheckInterval, a
// single-member group, K = 1 and K = m, and two-level aprefs (lower
// bounds tied at the k-th position). Of the last two rows, seed 136
// stops with a run of lower bounds tied at the k-th wider than the
// slots left in the top-k, so the tie order decides what is returned
// and a tied candidate outside can block; seed 104 (g=5) runs the
// signed aggregator, whose negative affinity lower ends take member
// preferences off the scalar kernel.
var stoppingCheckCorpus = []checkCase{
	{seed: 1, g: 4, m: 115, k: 9, spec: 0, agg: 0, interval: 1, levels: 5, partition: true},
	{seed: 2, g: 4, m: 115, k: 9, spec: 1, agg: 0, interval: 1, levels: 5, partition: true},
	{seed: 3, g: 2, m: 95, k: 4, spec: 2, agg: 0, interval: 1, levels: 4, partition: true},
	{seed: 4, g: 2, m: 95, k: 4, spec: 3, agg: 1, interval: 1, levels: 4, partition: true},
	{seed: 5, g: 3, m: 75, k: 2, spec: 4, agg: 0, interval: 1, levels: 5, partition: true},
	{seed: 6, g: 5, m: 55, k: 59, spec: 0, agg: 1, interval: 0, levels: 0, partition: false},
	{seed: 7, g: 5, m: 145, k: 0, spec: 1, agg: 2, interval: 2, levels: 1, partition: true, loose: true},
	{seed: 8, g: 0, m: 35, k: 4, spec: 2, agg: 3, interval: 3, levels: 2, partition: true},
	{seed: 9, g: 3, m: 45, k: 6, spec: 0, agg: 4, interval: 1, levels: 3, partition: true},
	{seed: 10, g: 2, m: 25, k: 2, spec: 3, agg: 4, interval: 2, levels: 0, partition: false, loose: true},
	{seed: 11, g: 5, m: 15, k: 2, spec: 4, agg: 3, interval: 3, levels: 5, partition: false},
	{seed: 12, g: 1, m: 0, k: 4, spec: 1, agg: 1, interval: 1, levels: 0, partition: true},
	{seed: 13, g: 4, m: 100, k: 9, spec: 0, agg: 0, interval: 1, levels: 5, stride: 3, partition: true},
	{seed: 14, g: 2, m: 120, k: 9, spec: 2, agg: 2, interval: 2, levels: 2, stride: 1, partition: true},
	{seed: 136, g: 1, m: 66, k: 6, spec: 1, agg: 0, interval: 1, levels: 1, partition: true},
	{seed: 104, g: 4, m: 64, k: 9, spec: 0, agg: 4, interval: 1, levels: 5, partition: true},
}

// input builds the instance: g in 1..6, m in 5..150, K in 1..m,
// aprefs quantized to 2..7 levels so lower bounds tie.
func (c checkCase) input() (Input, int) {
	rng := rand.New(rand.NewSource(c.seed))
	g := 1 + int(c.g)%6
	m := 5 + int(c.m)%146
	periods := 1 + rng.Intn(3)
	aggs := append(aggregators(g, periods), signedAggregator{Periods: periods})
	in := randomInput(rng, g, m, periods, 1+int(c.k)%m, specs()[int(c.spec)%5], aggs[int(c.agg)%5])
	in.PartitionAffinity = c.partition
	in.CheckInterval = []int{0, 1, 3, 7}[c.interval%4]
	in.LooseBounds = c.loose
	steps := float64(1 + int(c.levels)%6)
	for _, row := range in.Apref {
		for i, v := range row {
			row[i] = math.Round(v*steps) / steps
		}
	}
	// 0 never observes mid-run: only the trace and the result compare.
	stride := []int{1, 0, 2, 5}[c.stride%4]
	return in, stride
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// diffSnapshots names the first field on which two snapshots differ
// ("" when they agree); floats compare by bit pattern.
func diffSnapshots(got, want Snapshot) string {
	switch {
	case got.Stats != want.Stats:
		return fmt.Sprintf("Stats %+v, want %+v", got.Stats, want.Stats)
	case !sameBits(got.Threshold, want.Threshold):
		return fmt.Sprintf("Threshold %v, want %v", got.Threshold, want.Threshold)
	case !sameBits(got.KthLB, want.KthLB):
		return fmt.Sprintf("KthLB %v, want %v", got.KthLB, want.KthLB)
	case got.Evaluated != want.Evaluated || got.Done != want.Done:
		return fmt.Sprintf("Evaluated/Done %v/%v, want %v/%v", got.Evaluated, got.Done, want.Evaluated, want.Done)
	case len(got.TopK) != len(want.TopK):
		return fmt.Sprintf("%d items, want %d", len(got.TopK), len(want.TopK))
	}
	for i, g := range got.TopK {
		w := want.TopK[i]
		if g.Key != w.Key || !sameBits(g.LB, w.LB) || !sameBits(g.UB, w.UB) || g.Resolved != w.Resolved {
			return fmt.Sprintf("TopK[%d] = %+v, want %+v", i, g, w)
		}
	}
	return ""
}

// checkMatchesReference runs one instance through the production
// stepper and the eager reference in lock step and fails on the first
// observable difference.
func checkMatchesReference(t *testing.T, c checkCase) {
	t.Helper()
	in, stride := c.input()
	label := fmt.Sprintf("%+v (g=%d m=%d K=%d %v %v)", c, len(in.Apref), len(in.Apref[0]), in.K, in.Spec, in.Agg)

	// One Problem per stepper: cursors live in the Problem's lists.
	gotProb, err := NewProblem(in)
	if err != nil {
		t.Fatalf("%s: NewProblem: %v", label, err)
	}
	wantProb, err := NewProblem(in)
	if err != nil {
		t.Fatalf("%s: NewProblem: %v", label, err)
	}
	var gotTrace, wantTrace []TracePoint
	got, err := gotProb.Runner(ModeGRECA)
	if err != nil {
		t.Fatalf("%s: Runner: %v", label, err)
	}
	got.trace(func(tp TracePoint) { gotTrace = append(gotTrace, tp) })
	want := eagerRunner(wantProb, func(tp TracePoint) { wantTrace = append(wantTrace, tp) })

	for step := 1; ; step++ {
		gotDone, wantDone := got.Step(1), want.Step(1)
		if gotDone != wantDone {
			t.Fatalf("%s: step %d: done %v, reference %v", label, step, gotDone, wantDone)
		}
		if stride > 0 && step%stride == 0 {
			if d := diffSnapshots(got.Snapshot(), want.Snapshot()); d != "" {
				t.Fatalf("%s: step %d: snapshot: %s", label, step, d)
			}
			for _, eps := range []float64{0.01, 0.1} {
				if g, w := got.EpsilonReached(eps), want.EpsilonReached(eps); g != w {
					t.Fatalf("%s: step %d: EpsilonReached(%g) = %v, reference %v", label, step, eps, g, w)
				}
			}
		}
		if gotDone {
			break
		}
		if step > 1_000_000 {
			t.Fatalf("%s: did not terminate", label)
		}
	}

	gotRes, err := got.Result()
	if err != nil {
		t.Fatalf("%s: Result: %v", label, err)
	}
	wantRes, _ := want.Result()
	asSnapshot := func(r Result) Snapshot {
		return Snapshot{TopK: snapshotFromScores(r.TopK), Stats: r.Stats}
	}
	if d := diffSnapshots(asSnapshot(gotRes), asSnapshot(wantRes)); d != "" {
		t.Fatalf("%s: result: %s", label, d)
	}
	if d := diffSnapshots(got.Snapshot(), want.Snapshot()); d != "" {
		t.Fatalf("%s: final snapshot: %s", label, d)
	}
	if len(gotTrace) != len(wantTrace) {
		t.Fatalf("%s: %d trace points, reference %d", label, len(gotTrace), len(wantTrace))
	}
	for i, g := range gotTrace {
		// Alive is not compared: the reference prunes on exact upper
		// bounds at every check, the stepper on last-known ones.
		w := wantTrace[i]
		if g.Round != w.Round || g.SequentialAccesses != w.SequentialAccesses ||
			!sameBits(g.Threshold, w.Threshold) || !sameBits(g.KthLB, w.KthLB) {
			t.Fatalf("%s: trace[%d] = %+v, reference %+v", label, i, g, w)
		}
		if g.Alive < w.Alive {
			t.Fatalf("%s: trace[%d]: %d alive, fewer than the exact prune's %d", label, i, g.Alive, w.Alive)
		}
	}
}

// TestStoppingCheckMatchesReference is the differential that lets the
// stepper skip work: over the corpus and 1 600 random instances, the
// dirty-set stepper and the eager reference agree bit for bit on every
// snapshot, every ε certificate, the result, the stop reason and the
// trace.
func TestStoppingCheckMatchesReference(t *testing.T) {
	for _, c := range stoppingCheckCorpus {
		checkMatchesReference(t, c)
	}
	n := 1600
	if testing.Short() {
		n = 200
	}
	rng := rand.New(rand.NewSource(19))
	for i := 0; i < n; i++ {
		checkMatchesReference(t, randomCheckCase(rng))
	}
}

// randomCheckCase draws one instance of the differential's table.
func randomCheckCase(rng *rand.Rand) checkCase {
	c := checkCase{
		seed: rng.Int63(),
		g:    uint8(rng.Intn(6)), m: uint8(rng.Intn(146)), k: uint8(rng.Intn(256)),
		spec: uint8(rng.Intn(5)), agg: uint8(rng.Intn(5)),
		interval: uint8(rng.Intn(4)), levels: uint8(rng.Intn(6)),
		partition: rng.Intn(2) == 0, loose: rng.Intn(4) == 0,
	}
	// Three instances in four are observed at every step.
	if rng.Intn(4) == 0 {
		c.stride = uint8(1 + rng.Intn(3))
	}
	// K = m (no early stop possible) gets its own share.
	if rng.Intn(16) == 0 {
		c.k = uint8((4 + int(c.m)%146) % 256)
	}
	return c
}

// TestPruneLeavesTheFullWalkSet holds the incremental prune to the walk
// of the whole alive set it replaces. Right after a prune — at the
// trace point of every check that has K candidates, bar the final
// exhausted one — a buffered candidate must be alive exactly when its
// last-known upper bound is at least the k-th lower bound (a pruned one
// fell below an earlier, no larger k-th lower bound, and is never
// scored again), and every alive candidate must sit at its recorded
// index. The runs are observed between steps as the table observes
// them, so upper bounds also move outside the checks.
func TestPruneLeavesTheFullWalkSet(t *testing.T) {
	cases := append([]checkCase(nil), stoppingCheckCorpus...)
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 400; i++ {
		cases = append(cases, randomCheckCase(rng))
	}
	for _, c := range cases {
		in, stride := c.input()
		prob, err := NewProblem(in)
		if err != nil {
			t.Fatalf("%+v: NewProblem: %v", c, err)
		}
		r, err := prob.Runner(ModeGRECA)
		if err != nil {
			t.Fatalf("%+v: Runner: %v", c, err)
		}
		s := r.s.(*grecaState)
		r.trace(func(tp TracePoint) {
			if tp.Alive < in.K || s.st.Stop == StopExhausted {
				return
			}
			for i, a := range s.alive {
				if !a.alive || int(a.pos) != i {
					t.Fatalf("%+v: round %d: alive[%d] is item %d with pos %d, alive %v", c, tp.Round, i, a.key, a.pos, a.alive)
				}
			}
			n := 0
			for _, a := range s.cands {
				if a == nil {
					continue
				}
				if a.alive != (a.ub >= tp.KthLB) {
					t.Fatalf("%+v: round %d: item %d alive %v with upper bound %v against k-th lower bound %v",
						c, tp.Round, a.key, a.alive, a.ub, tp.KthLB)
				}
				if a.alive {
					n++
				}
			}
			if n != len(s.alive) {
				t.Fatalf("%+v: round %d: %d candidates alive, alive set holds %d", c, tp.Round, n, len(s.alive))
			}
		})
		for step := 1; !r.Step(1); step++ {
			if stride > 0 && step%stride == 0 {
				r.Snapshot()
				r.EpsilonReached(0.1)
			}
		}
	}
}

func FuzzStoppingCheckMatchesReference(f *testing.F) {
	for _, c := range stoppingCheckCorpus {
		f.Add(c.seed, c.g, c.m, c.k, c.spec, c.agg, c.interval, c.levels, c.stride, c.partition, c.loose)
	}
	f.Fuzz(func(t *testing.T, seed int64, g, m, k, spec, agg, interval, levels, stride uint8, partition, loose bool) {
		checkMatchesReference(t, checkCase{
			seed: seed, g: g, m: m, k: k, spec: spec, agg: agg,
			interval: interval, levels: levels, stride: stride,
			partition: partition, loose: loose,
		})
	})
}

// TestStoppingCheckWorkIsProportionalToSweep pins the work of a run, not
// its time, on the serving benchmark's commonest request shape (g=5,
// m=600, K=10, AP, discrete affinity): the stepper scores about one
// candidate per item-keyed entry it reads, a prune examines the
// candidates scored since the last one and walks the whole alive set
// only when the k-th lower bound rose, and the buffer is sorted at
// most twice (a tie run at the k-th lower bound by key, then the k
// returned). Re-scoring the whole buffer at every check — what the
// reference does — is some fifteen scoreItem calls per entry and a
// sort at most checks past the threshold crossing.
func TestStoppingCheckWorkIsProportionalToSweep(t *testing.T) {
	in := benchProblemInput(5, 600)
	in.PartitionAffinity = true
	prob, err := NewProblem(in)
	if err != nil {
		t.Fatal(err)
	}
	r, err := prob.Runner(ModeGRECA)
	if err != nil {
		t.Fatal(err)
	}
	// A prune runs at every check that reaches K candidates; count the
	// checks at which the k-th lower bound it compares against rose.
	rises, lastKth := 0, math.Inf(-1)
	r.trace(func(tp TracePoint) {
		if tp.Alive < in.K {
			return
		}
		if tp.KthLB > lastKth {
			rises++
		}
		lastKth = tp.KthLB
	})
	for !r.Step(1) {
	}
	s := r.s.(*grecaState)
	itemKeyedSA := 0
	for _, l := range prob.lists {
		if itemKeyed(l.Kind) {
			itemKeyedSA += l.pos
		}
	}
	t.Logf("%d checks, %d item-keyed accesses, %d scoreItem calls, %d sorts, %d buffered",
		s.st.Checks, itemKeyedSA, s.scoreCalls, s.sortCalls, s.buffered)
	t.Logf("prune examined %d candidates: %d in %d full walks (%d k-th lower bound rises)",
		s.pruneExamined, s.pruneWalked, s.fullPrunes, rises)
	if s.st.Stop == StopExhausted {
		t.Fatalf("run scanned everything (%+v): not the early-stopping shape this test is about", s.st)
	}
	if s.scoreCalls > 2*itemKeyedSA {
		t.Errorf("%d scoreItem calls for %d item-keyed accesses: more than 2 per entry read", s.scoreCalls, itemKeyedSA)
	}
	if s.fullPrunes > rises {
		t.Errorf("%d full prune walks, but the k-th lower bound rose at only %d checks", s.fullPrunes, rises)
	}
	if s.pruneExamined > s.scoreCalls+s.pruneWalked {
		t.Errorf("prune examined %d candidates: more than the %d re-scored plus the %d alive at the rises",
			s.pruneExamined, s.scoreCalls, s.pruneWalked)
	}
	if s.sortCalls > 2 {
		t.Errorf("%d sorts in one run, want at most 2", s.sortCalls)
	}
}
