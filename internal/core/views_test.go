package core

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/consensus"
)

// randomViewInput builds a random problem instance. quantize forces heavy
// score duplication (values on a 1/4 grid) so tie-order between the
// sorted and view-built paths is exercised.
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
// scans guarantee it), and unmapped pool positions carry noise entries
// the filter must skip.
func randomViewSet(rng *rand.Rand, in Input) ViewSet {
	g := len(in.Apref)
	m := len(in.Apref[0])
	B := m + rng.Intn(8)
	localOf := make([]int32, B)
	for p := range localOf {
		localOf[p] = -1
	}
	positions := rng.Perm(B)[:m]
	sort.Ints(positions)
	for l, p := range positions {
		localOf[p] = int32(l)
	}
	vs := ViewSet{LocalOf: localOf, Members: make([]*SortedView, g)}
	for u := 0; u < g; u++ {
		scores := make([]float64, B)
		for p := 0; p < B; p++ {
			if l := localOf[p]; l >= 0 {
				scores[p] = in.Apref[u][l]
			} else {
				scores[p] = rng.Float64() // noise: filtered out
			}
		}
		vs.Members[u] = sortedViewOf(scores)
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
// view path rides on: for every consensus spec, aggregator, group size
// (including single-member groups with no pairs), execution mode and
// tie density, a problem built from views must produce bit-identical
// Run output to the re-sorting constructor.
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
					name     string
					quantize bool
				}{
					{"spread", false},
					{"ties", true}, // duplicate scores
				} {
					in := randomViewInput(rng, g, 40, 5, spec, agg, cfg.quantize)
					vs := randomViewSet(rng, in)

					sorted, err := NewProblem(in)
					if err != nil {
						t.Fatalf("%s/%s g=%d %s: NewProblem: %v", specName, aggName, g, cfg.name, err)
					}
					viewed, err := NewProblemFromViews(in, vs)
					if err != nil {
						t.Fatalf("%s/%s g=%d %s: NewProblemFromViews: %v", specName, aggName, g, cfg.name, err)
					}
					if sorted.TotalEntries() != viewed.TotalEntries() || sorted.NumLists() != viewed.NumLists() {
						t.Fatalf("%s/%s g=%d %s: shape diverges: %d/%d lists, %d/%d entries",
							specName, aggName, g, cfg.name,
							sorted.NumLists(), viewed.NumLists(), sorted.TotalEntries(), viewed.TotalEntries())
					}
					for _, mode := range modes {
						want, err1 := sorted.Run(mode)
						got, err2 := viewed.Run(mode)
						if err1 != nil || err2 != nil {
							t.Fatalf("%s/%s g=%d %s %v: run errors %v / %v", specName, aggName, g, cfg.name, mode, err1, err2)
						}
						if !reflect.DeepEqual(want, got) {
							t.Errorf("%s/%s g=%d %s %v: results diverge\nsorted: %+v\nmerged: %+v",
								specName, aggName, g, cfg.name, mode, want, got)
						}
					}
					viewed.Release()
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
	vs := randomViewSet(rng, in)

	sorted, err := NewProblem(in)
	if err != nil {
		t.Fatalf("NewProblem: %v", err)
	}
	viewed, err := NewProblemFromViews(in, vs)
	if err != nil {
		t.Fatalf("NewProblemFromViews: %v", err)
	}
	defer viewed.Release()
	if got, want := viewed.NumLists(), 1; got != want {
		t.Errorf("single-member problem has %d lists, want %d (one preference list)", got, want)
	}
	want, _ := sorted.Run(ModeGRECA)
	got, err := viewed.Run(ModeGRECA)
	if err != nil {
		t.Fatalf("viewed run: %v", err)
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
	vs := randomViewSet(rng, in)
	viewed, err := NewProblemFromViews(in, vs)
	if err != nil {
		t.Fatalf("NewProblemFromViews: %v", err)
	}
	defer viewed.Release()
	for i, e := range viewed.prefList[0].Entries {
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
		return in, randomViewSet(rng, in)
	}

	t.Run("member count", func(t *testing.T) {
		in, vs := base()
		vs.Members = vs.Members[:1]
		if _, err := NewProblemFromViews(in, vs); err == nil {
			t.Error("short member list accepted")
		}
	})
	t.Run("stale view value", func(t *testing.T) {
		in, vs := base()
		// Tamper with the first mapped entry of member 0's view.
		view := vs.Members[0]
		scores := append([]float64(nil), view.Scores...)
		for _, p := range view.Order {
			if vs.LocalOf[p] >= 0 {
				scores[p] /= 2
				break
			}
		}
		vs.Members[0] = &SortedView{Scores: scores, Order: view.Order}
		if _, err := NewProblemFromViews(in, vs); err == nil {
			t.Error("stale view value accepted")
		}
	})
	t.Run("duplicate local key", func(t *testing.T) {
		in, vs := base()
		// Two pool positions claim the first mapped position's local
		// key, and its neighbour's key goes missing.
		var mapped []int
		for p, l := range vs.LocalOf {
			if l >= 0 {
				mapped = append(mapped, p)
			}
		}
		vs.LocalOf[mapped[1]] = vs.LocalOf[mapped[0]]
		if _, err := NewProblemFromViews(in, vs); err == nil {
			t.Error("duplicate local key accepted")
		}
	})
	t.Run("missing local key", func(t *testing.T) {
		in, vs := base()
		for p, l := range vs.LocalOf {
			if l >= 0 {
				vs.LocalOf[p] = -1
				break
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
	vs := randomViewSet(rng, in)

	viewed, err := NewProblemFromViews(in, vs)
	if err != nil {
		t.Fatalf("NewProblemFromViews: %v", err)
	}
	if _, err := viewed.Run(ModeGRECA); err != nil {
		t.Fatalf("run before release: %v", err)
	}
	viewed.Release()
	viewed.Release() // idempotent
	if _, err := viewed.Run(ModeGRECA); err == nil {
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

// FuzzProblemFromViewsMatchesNewProblem searches for a pool and a
// candidate subset on which a problem built from views diverges from
// the re-sorting constructor. Pool scores sit on a few levels, so ties
// are the rule, and the candidates are the pool positions mask selects,
// in pool order — the one shape the engine serves from views. Every
// member's list and a GRECA run must match NewProblem's.
func FuzzProblemFromViewsMatchesNewProblem(f *testing.F) {
	f.Add(uint8(3), uint16(40), uint8(4), int64(1), []byte{0xb5})
	f.Add(uint8(1), uint16(1), uint8(1), int64(2), []byte{})
	f.Add(uint8(5), uint16(300), uint8(2), int64(3), []byte{0xff, 0x0f, 0x81})
	f.Add(uint8(2), uint16(64), uint8(1), int64(4), []byte{0x01})
	f.Fuzz(func(t *testing.T, groupSize uint8, poolSize uint16, levels uint8, seed int64, mask []byte) {
		g := 1 + int(groupSize)%5
		B := 1 + int(poolSize)%400
		nl := 1 + int(levels)%8
		localOf := make([]int32, B)
		var positions []int
		for p := range localOf {
			localOf[p] = -1
			if len(mask) == 0 || mask[p/8%len(mask)]&(1<<(p%8)) != 0 {
				localOf[p] = int32(len(positions))
				positions = append(positions, p)
			}
		}
		m := len(positions)
		if m == 0 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		in := randomViewInput(rng, g, m, 1+rng.Intn(min(m, 8)), consensus.PD(0.8), DiscreteAggregator{Periods: 2}, true)
		vs := ViewSet{LocalOf: localOf, Members: make([]*SortedView, g)}
		for u := range vs.Members {
			scores := make([]float64, B)
			for p := range scores {
				scores[p] = float64(rng.Intn(nl)) / float64(nl)
			}
			for l, p := range positions {
				in.Apref[u][l] = scores[p]
			}
			vs.Members[u] = sortedViewOf(scores)
		}

		sorted, err := NewProblem(in)
		if err != nil {
			t.Fatalf("NewProblem: %v", err)
		}
		viewed, err := NewProblemFromViews(in, vs)
		if err != nil {
			t.Fatalf("NewProblemFromViews: %v", err)
		}
		defer viewed.Release()
		for u := range sorted.prefList {
			if !slices.Equal(sorted.prefList[u].Entries, viewed.prefList[u].Entries) {
				t.Fatalf("member %d: view-built list diverges\nsorted: %v\nviewed: %v", u, sorted.prefList[u].Entries, viewed.prefList[u].Entries)
			}
		}
		want, err1 := sorted.Run(ModeGRECA)
		got, err2 := viewed.Run(ModeGRECA)
		if err1 != nil || err2 != nil {
			t.Fatalf("run errors %v / %v", err1, err2)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("GRECA results diverge\nsorted: %+v\nviewed: %+v", want, got)
		}
	})
}
