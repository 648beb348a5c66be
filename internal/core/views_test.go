package core

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/consensus"
)

// randomViewInput builds a random problem instance. quantize forces heavy
// score duplication (values on a 1/4 grid) so tie-order between the
// sorted and merged paths is exercised.
func randomViewInput(rng *rand.Rand, g, m, k int, spec consensus.Spec, agg Aggregator, quantize bool) Input {
	val := func() float64 {
		v := rng.Float64()
		if quantize {
			v = float64(int(v*4)) / 4
		}
		return v
	}
	apref := make([][]float64, g)
	for u := range apref {
		row := make([]float64, m)
		for i := range row {
			row[i] = val()
		}
		apref[u] = row
	}
	in := Input{
		Apref:             apref,
		Spec:              spec,
		Agg:               agg,
		K:                 k,
		PartitionAffinity: true,
	}
	if _, ok := agg.(NoAffinityAggregator); !ok && g >= 2 {
		nPairs := NumPairs(g)
		in.Static = make([]float64, nPairs)
		for i := range in.Static {
			in.Static[i] = val()
		}
		in.Drift = make([][]float64, agg.NumPeriods())
		for t := range in.Drift {
			row := make([]float64, nPairs)
			for i := range row {
				row[i] = 2*val() - 1
			}
			in.Drift[t] = row
		}
	}
	return in
}

// randomViewSet derives a ViewSet equivalent to in: the problem's items
// are embedded at a random order-preserving choice of pool positions
// (LocalOf must be monotone — the engine's pool-ordered candidate
// scans guarantee it), a random subset is withheld from the mapping and
// served through each member's patch instead, and unmapped pool
// positions carry noise entries the merge must skip.
func randomViewSet(rng *rand.Rand, in Input, patchFrac float64) ViewSet {
	g := len(in.Apref)
	m := len(in.Apref[0])
	B := m + rng.Intn(8)
	localOf := make([]int32, B)
	for p := range localOf {
		localOf[p] = -1
	}
	var patchLocals, mapped []int
	for i := 0; i < m; i++ {
		if rng.Float64() < patchFrac {
			patchLocals = append(patchLocals, i)
		} else {
			mapped = append(mapped, i)
		}
	}
	positions := rng.Perm(B)[:len(mapped)]
	sort.Ints(positions)
	for j, p := range positions {
		localOf[p] = int32(mapped[j])
	}
	vs := ViewSet{LocalOf: localOf, Members: make([]MemberView, g)}
	for u := 0; u < g; u++ {
		scores := make([]float64, B)
		for p := 0; p < B; p++ {
			if l := localOf[p]; l >= 0 {
				scores[p] = in.Apref[u][l]
			} else {
				scores[p] = rng.Float64() // noise: filtered out
			}
		}
		patch := make([]Entry, 0, len(patchLocals))
		for _, l := range patchLocals {
			patch = append(patch, Entry{Key: l, Value: in.Apref[u][l]})
		}
		sortEntries(patch)
		vs.Members[u] = MemberView{View: sortedViewOf(scores), Patch: patch}
	}
	return vs
}

// sortedViewOf builds the view over scores: the pool positions in
// canonical order beside the scores they index.
func sortedViewOf(scores []float64) *SortedView {
	entries := make([]Entry, len(scores))
	for p, v := range scores {
		entries[p] = Entry{Key: p, Value: v}
	}
	sortEntries(entries)
	order := make([]int32, len(entries))
	for i, e := range entries {
		order[i] = int32(e.Key)
	}
	return &SortedView{Scores: scores, Order: order}
}

// TestProblemFromViewsMatchesNewProblem is the differential proof the
// merge path rides on: for every consensus spec, aggregator, group size
// (including single-member groups with no pairs), execution mode, tie
// density, and patch density — including empty patch sets — a problem
// built from views must produce bit-identical Run output to the
// re-sorting constructor.
func TestProblemFromViewsMatchesNewProblem(t *testing.T) {
	specs := map[string]consensus.Spec{
		"AP":  consensus.AP(),
		"MO":  consensus.MO(),
		"PD1": consensus.PD(0.8),
		"PD2": consensus.PD(0.2),
		"VD":  consensus.VD(0.8),
	}
	aggs := map[string]Aggregator{
		"discrete":   DiscreteAggregator{Periods: 2},
		"continuous": ContinuousAggregator{Periods: 2, Rate: 0.5},
		"static":     StaticAggregator{},
		"none":       NoAffinityAggregator{},
	}
	modes := []Mode{ModeGRECA, ModeThresholdExact, ModeFullScan, ModeTA}

	rng := rand.New(rand.NewSource(7))
	for specName, spec := range specs {
		for aggName, agg := range aggs {
			for _, g := range []int{1, 2, 3, 5} {
				for _, cfg := range []struct {
					name      string
					quantize  bool
					patchFrac float64
				}{
					{"dense", false, 0},     // empty patch set
					{"patched", false, 0.3}, // mixed view+patch
					{"ties", true, 0.2},     // duplicate scores
				} {
					in := randomViewInput(rng, g, 40, 5, spec, agg, cfg.quantize)
					vs := randomViewSet(rng, in, cfg.patchFrac)

					sorted, err := NewProblem(in)
					if err != nil {
						t.Fatalf("%s/%s g=%d %s: NewProblem: %v", specName, aggName, g, cfg.name, err)
					}
					merged, err := NewProblemFromViews(in, vs)
					if err != nil {
						t.Fatalf("%s/%s g=%d %s: NewProblemFromViews: %v", specName, aggName, g, cfg.name, err)
					}
					if sorted.TotalEntries() != merged.TotalEntries() || sorted.NumLists() != merged.NumLists() {
						t.Fatalf("%s/%s g=%d %s: shape diverges: %d/%d lists, %d/%d entries",
							specName, aggName, g, cfg.name,
							sorted.NumLists(), merged.NumLists(), sorted.TotalEntries(), merged.TotalEntries())
					}
					for _, mode := range modes {
						want, err1 := sorted.Run(mode)
						got, err2 := merged.Run(mode)
						if err1 != nil || err2 != nil {
							t.Fatalf("%s/%s g=%d %s %v: run errors %v / %v", specName, aggName, g, cfg.name, mode, err1, err2)
						}
						if !reflect.DeepEqual(want, got) {
							t.Errorf("%s/%s g=%d %s %v: results diverge\nsorted: %+v\nmerged: %+v",
								specName, aggName, g, cfg.name, mode, want, got)
						}
					}
					merged.Release()
				}
			}
		}
	}
}

// TestProblemFromViewsSingleMemberNoPairs pins the degenerate group:
// one member, no pairs, no affinity or agreement lists on either path.
func TestProblemFromViewsSingleMemberNoPairs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	in := randomViewInput(rng, 1, 25, 3, consensus.AP(), NoAffinityAggregator{}, false)
	vs := randomViewSet(rng, in, 0)

	sorted, err := NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	merged, err := NewProblemFromViews(in, vs)
	if err != nil {
		t.Fatalf("NewProblemFromViews: %v", err)
	}
	defer merged.Release()
	if got, want := merged.NumLists(), 1; got != want {
		t.Errorf("single-member problem has %d lists, want %d (one preference list)", got, want)
	}
	want, _ := sorted.Run(ModeGRECA)
	got, err := merged.Run(ModeGRECA)
	if err != nil {
		t.Fatalf("merged run: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("single-member results diverge: %+v vs %+v", want, got)
	}
}

// TestProblemFromViewsDuplicateScoresTieOrder pins the canonical tie
// order directly: an all-equal row must come out keyed 0..m-1 on both
// paths, whatever the pool permutation.
func TestProblemFromViewsDuplicateScoresTieOrder(t *testing.T) {
	const m = 12
	row := make([]float64, m)
	for i := range row {
		row[i] = 0.5
	}
	in := Input{
		Apref: [][]float64{row},
		Spec:  consensus.AP(),
		Agg:   NoAffinityAggregator{},
		K:     m,
	}
	rng := rand.New(rand.NewSource(11))
	vs := randomViewSet(rng, in, 0.4)
	merged, err := NewProblemFromViews(in, vs)
	if err != nil {
		t.Fatalf("NewProblemFromViews: %v", err)
	}
	defer merged.Release()
	for i, e := range merged.prefList[0].Entries {
		if e.Key != i {
			t.Fatalf("tie order broken: entry %d has key %d", i, e.Key)
		}
	}
}

// TestProblemFromViewsRejectsInconsistency exercises the verification
// layer: views that disagree with the dense rows must error, never
// silently change the ranking.
func TestProblemFromViewsRejectsInconsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base := func() (Input, ViewSet) {
		in := randomViewInput(rng, 2, 10, 2, consensus.AP(), NoAffinityAggregator{}, false)
		return in, randomViewSet(rng, in, 0.2)
	}

	t.Run("member count", func(t *testing.T) {
		in, vs := base()
		vs.Members = vs.Members[:1]
		if _, err := NewProblemFromViews(in, vs); err == nil {
			t.Error("short member list accepted")
		}
	})
	t.Run("patch without view", func(t *testing.T) {
		in, vs := base()
		vs.Members[0].View = nil
		if len(vs.Members[0].Patch) == 0 {
			vs.Members[0].Patch = []Entry{{Key: 0, Value: in.Apref[0][0]}}
		}
		if _, err := NewProblemFromViews(in, vs); err == nil {
			t.Error("patch without view accepted")
		}
	})
	t.Run("stale view value", func(t *testing.T) {
		in, vs := base()
		// Tamper with the first mapped entry of member 0's view.
		view := vs.Members[0].View
		scores := append([]float64(nil), view.Scores...)
		for _, p := range view.Order {
			if vs.LocalOf[p] >= 0 {
				scores[p] /= 2
				break
			}
		}
		vs.Members[0].View = &SortedView{Scores: scores, Order: view.Order}
		if _, err := NewProblemFromViews(in, vs); err == nil {
			t.Error("stale view value accepted")
		}
	})
	t.Run("duplicate local key", func(t *testing.T) {
		in, vs := base()
		mapped := -1
		for p, l := range vs.LocalOf {
			if l >= 0 {
				mapped = p
				break
			}
		}
		dup := int(vs.LocalOf[mapped])
		for u := range vs.Members {
			vs.Members[u].Patch = append(vs.Members[u].Patch, Entry{Key: dup, Value: in.Apref[u][dup]})
			sortEntries(vs.Members[u].Patch)
		}
		if _, err := NewProblemFromViews(in, vs); err == nil {
			t.Error("duplicate local key accepted")
		}
	})
	t.Run("missing local key", func(t *testing.T) {
		in, vs := base()
		for u := range vs.Members {
			if len(vs.Members[u].Patch) > 0 {
				vs.Members[u].Patch = vs.Members[u].Patch[:len(vs.Members[u].Patch)-1]
			}
		}
		// If no member had a patch, withhold a mapped position instead.
		hadPatch := false
		for u := range vs.Members {
			hadPatch = hadPatch || len(vs.Members[u].Patch) > 0
		}
		if !hadPatch {
			for p, l := range vs.LocalOf {
				if l >= 0 {
					vs.LocalOf[p] = -1
					break
				}
			}
		}
		if _, err := NewProblemFromViews(in, vs); err == nil {
			t.Error("missing local key accepted")
		}
	})
}

// TestProblemReleaseSemantics pins the pooled-buffer lifecycle: Release
// is idempotent, poisons Run, and is a no-op for NewProblem problems.
func TestProblemReleaseSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	in := randomViewInput(rng, 2, 10, 2, consensus.PD(0.8), DiscreteAggregator{Periods: 2}, false)
	vs := randomViewSet(rng, in, 0)

	merged, err := NewProblemFromViews(in, vs)
	if err != nil {
		t.Fatalf("NewProblemFromViews: %v", err)
	}
	if _, err := merged.Run(ModeGRECA); err != nil {
		t.Fatalf("run before release: %v", err)
	}
	merged.Release()
	merged.Release() // idempotent
	if _, err := merged.Run(ModeGRECA); err == nil {
		t.Error("Run succeeded on a released problem")
	}

	sorted, err := NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	sorted.Release() // no-op: nothing pooled
	if _, err := sorted.Run(ModeGRECA); err != nil {
		t.Errorf("Release poisoned a NewProblem-built problem: %v", err)
	}
}
