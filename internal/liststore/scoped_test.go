package liststore

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/shard"
)

// depsStub is a stubSource that also reports per-user dependency
// metadata, giving the scoped-invalidation tests full control over
// which verdict each cached view receives.
type depsStub struct {
	stubSource
	deps map[dataset.UserID]cf.RowDeps
}

func (d *depsStub) PredictBatchDeps(u dataset.UserID, items []dataset.ItemID) ([]float64, cf.RowDeps) {
	return d.stubSource.PredictBatch(u, items), d.deps[u]
}

// TestInvalidateScopedVerdicts pins every branch of the scoped sweep on
// one store: stale users drop, dependency-free views are retained
// untouched, views depending on the rated item are patched in place
// bit-identically to a rebuild, global-mean views drop, and the
// counters record each outcome exactly.
func TestInvalidateScopedVerdicts(t *testing.T) {
	pool := testPool(6) // items 10..60, pool positions 0..5
	src := &depsStub{deps: map[dataset.UserID]cf.RowDeps{
		2: {FallbackItems: []dataset.ItemID{30, 50}, FallbackPos: []int32{2, 4}},
		4: {FallbackItems: []dataset.ItemID{10}, FallbackPos: []int32{0}, UsedGlobal: true},
	}}
	s := New(src, pool, 8, 5)
	for _, u := range []dataset.UserID{1, 2, 3, 4} {
		mustAcquire(s, u)
	}
	retainedBefore := mustAcquire(s, 3)

	// Ingest on item 30: u1 is stale (predictor verdict), u2 depends on
	// item 30 through two fallback entries, u3 depends on nothing, u4
	// touched the global mean.
	// A variable, not a constant: the store divides at runtime, and
	// constant folding would round 4.2/5 differently than float64 math.
	rawPatch := 4.2
	dropped := s.InvalidateScoped(map[dataset.UserID]struct{}{1: {}}, 30, rawPatch, true)
	if dropped != 2 {
		t.Errorf("scoped sweep dropped %d views, want 2 (stale u1, global u4)", dropped)
	}
	st := s.Stats()
	if st.Invalidations != 2 || st.Patched != 1 || st.Retained != 2 || st.Size != 2 {
		t.Errorf("stats = %d dropped / %d patched / %d retained / %d resident, want 2 / 1 / 2 / 2",
			st.Invalidations, st.Patched, st.Retained, st.Size)
	}

	// The untouched view is the same object — no rebuild, no copy.
	if mustAcquire(s, 3) != retainedBefore {
		t.Error("independent view was rebuilt or copied by the scoped sweep")
	}

	// The patched view must equal a from-scratch build over the patched
	// dense scores: only pool position 2 (item 30) changed, to the new
	// mean with the store's divisor applied.
	wantScores := append([]float64(nil), retainedBefore.Scores...)
	fresh, err := s.build([]dataset.UserID{2})
	if err != nil {
		t.Fatal(err)
	}
	copy(wantScores, fresh[0].Scores)
	wantScores[2] = rawPatch / 5
	want := viewFromScores(wantScores)
	got := mustAcquire(s, 2)
	if !reflect.DeepEqual(got.Scores, want.Scores) {
		t.Errorf("patched scores = %v, want %v", got.Scores, want.Scores)
	}
	if !reflect.DeepEqual(got.Sorted.Entries, want.Sorted.Entries) {
		t.Errorf("patched sorted side = %v, want re-sorted %v", got.Sorted.Entries, want.Sorted.Entries)
	}

	// Dropped users rebuild on next Acquire (fresh source call).
	calls := src.batchCalls.Load()
	mustAcquire(s, 1)
	mustAcquire(s, 4)
	if src.batchCalls.Load() != calls+2 {
		t.Error("dropped views did not rebuild from the source")
	}
}

// TestInvalidateScopedWithoutPatchDropsDependents pins the missing-mean
// path: when the ingested item has no usable mean, dependent views
// cannot be patched and must drop.
func TestInvalidateScopedWithoutPatchDropsDependents(t *testing.T) {
	src := &depsStub{deps: map[dataset.UserID]cf.RowDeps{
		2: {FallbackItems: []dataset.ItemID{30}, FallbackPos: []int32{2}},
	}}
	s := New(src, testPool(6), 8, 5)
	mustAcquire(s, 2)
	mustAcquire(s, 3)
	if dropped := s.InvalidateScoped(nil, 30, 0, false); dropped != 1 {
		t.Errorf("sweep without a patch dropped %d views, want the 1 dependent", dropped)
	}
	if st := s.Stats(); st.Retained != 1 || st.Patched != 0 {
		t.Errorf("stats = %d retained / %d patched, want 1 / 0", st.Retained, st.Patched)
	}
}

// TestInvalidateScopedDropsRestoredViews pins the warm-restart
// contract: snapshot-restored views carry no dependency metadata, so
// the first scoped sweep drops them even with an empty stale set.
func TestInvalidateScopedDropsRestoredViews(t *testing.T) {
	src := &depsStub{}
	a := New(src, testPool(4), 8, 5)
	mustAcquire(a, 1)
	mustAcquire(a, 2)

	b := New(src, testPool(4), 8, 5)
	if n := b.RestoreViews(a.ExportViews()); n != 2 {
		t.Fatalf("restored %d views, want 2", n)
	}
	if dropped := b.InvalidateScoped(nil, 99, 0, false); dropped != 2 {
		t.Errorf("first scoped sweep dropped %d restored views, want 2", dropped)
	}
	// Rebuilt views carry metadata again and survive the next sweep.
	mustAcquire(b, 1)
	if dropped := b.InvalidateScoped(nil, 99, 0, false); dropped != 0 {
		t.Errorf("second scoped sweep dropped %d rebuilt views, want 0", dropped)
	}
	if st := b.Stats(); st.Retained != 1 {
		t.Errorf("retained = %d after the second sweep, want 1", st.Retained)
	}
}

// TestInvalidateScopedDropsMidBuildEntries pins the nil-view branch: an
// entry whose build has not settled cannot be proven fresh and drops.
func TestInvalidateScopedDropsMidBuildEntries(t *testing.T) {
	s := New(&depsStub{}, testPool(4), 8, 5)
	p := s.part(7)
	p.mu.Lock()
	p.entries[7] = &userEntry{} // registered, build not yet settled
	p.ring = append(p.ring, 7)
	p.mu.Unlock()
	if dropped := s.InvalidateScoped(nil, 10, 0, false); dropped != 1 {
		t.Errorf("sweep dropped %d mid-build entries, want 1", dropped)
	}
}

// TestPatchViewMatchesResort is the splice property test: for random
// dense score vectors (with deliberate ties) and random patch targets,
// the binary-search splice must produce exactly the view a full
// re-sort of the patched scores produces — the canonical order is
// total, so the two are bit-identical.
func TestPatchViewMatchesResort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(30)
		scores := make([]float64, n)
		for i := range scores {
			// Draw from a small value set so ties are common.
			scores[i] = float64(rng.Intn(8)) / 4
		}
		// Patch between one and three distinct positions as fallback
		// entries of the same item.
		var deps cf.RowDeps
		seen := map[int]bool{}
		for len(deps.FallbackPos) < 1+rng.Intn(3) {
			pos := rng.Intn(n)
			if seen[pos] {
				continue
			}
			seen[pos] = true
			deps.FallbackItems = append(deps.FallbackItems, 77)
			deps.FallbackPos = append(deps.FallbackPos, int32(pos))
		}
		patchScore := float64(rng.Intn(8)) / 4

		v := NewView(scores, deps, true)
		got := patchView(v, 77, patchScore)
		wantScores := append([]float64(nil), scores...)
		for _, pos := range deps.FallbackPos {
			wantScores[pos] = patchScore
		}
		want := viewFromScores(wantScores)
		if !reflect.DeepEqual(got.Scores, want.Scores) {
			t.Fatalf("trial %d: patched scores %v, want %v", trial, got.Scores, want.Scores)
		}
		if !reflect.DeepEqual(got.Sorted.Entries, want.Sorted.Entries) {
			t.Fatalf("trial %d: spliced order %v, want re-sort %v\nscores %v -> %v",
				trial, got.Sorted.Entries, want.Sorted.Entries, scores, wantScores)
		}
		// The input view is immutable: shared with concurrent readers.
		if !reflect.DeepEqual(v.Scores, scores) {
			t.Fatalf("trial %d: patchView mutated its input", trial)
		}
	}
}

// TestShardedInvalidateScoped pins the sweep across shard parts: drops
// and patches land on the owning parts only and the summed stats agree.
func TestShardedInvalidateScoped(t *testing.T) {
	src := &depsStub{deps: map[dataset.UserID]cf.RowDeps{
		5: {FallbackItems: []dataset.ItemID{20}, FallbackPos: []int32{1}},
	}}
	m, err := shard.New(4)
	if err != nil {
		t.Fatal(err)
	}
	s := NewSharded(src, testPool(4), 32, 5, m)
	for u := dataset.UserID(0); u < 8; u++ {
		mustAcquire(s, u)
	}
	dropped := s.InvalidateScoped(map[dataset.UserID]struct{}{0: {}, 6: {}}, 20, 3.5, true)
	if dropped != 2 {
		t.Errorf("sharded sweep dropped %d views, want 2", dropped)
	}
	st := s.Stats()
	if st.Invalidations != 2 || st.Patched != 1 || st.Retained != 6 || st.Size != 6 {
		t.Errorf("stats = %d dropped / %d patched / %d retained / %d resident, want 2 / 1 / 6 / 6",
			st.Invalidations, st.Patched, st.Retained, st.Size)
	}
	var sumR, sumP uint64
	for _, sh := range s.StatsByShard() {
		sumR += sh.Retained
		sumP += sh.Patched
	}
	if sumR != st.Retained || sumP != st.Patched {
		t.Errorf("per-shard sums %d retained / %d patched disagree with totals %d / %d",
			sumR, sumP, st.Retained, st.Patched)
	}
}
