package engine

import (
	"math/rand"
	"testing"

	"repro/internal/cf"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/liststore"
)

func testSubstrate(t *testing.T) (*dataset.Store, *cf.Predictor) {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	s := dataset.NewStore()
	seen := make(map[[2]int]bool)
	for n := 0; n < 500; n++ {
		u, it := rng.Intn(30), rng.Intn(40)
		if seen[[2]int{u, it}] {
			continue
		}
		seen[[2]int{u, it}] = true
		if err := s.Add(dataset.Rating{
			User:  dataset.UserID(u),
			Item:  dataset.ItemID(it),
			Value: float64(1 + rng.Intn(5)),
		}); err != nil {
			t.Fatalf("Add: %v", err)
		}
	}
	s.Freeze()
	p, err := cf.NewPredictor(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// mustAprefRows unwraps the (rows, error) pair for the local-only
// assemblers these tests build: without a remote plane attached,
// AprefRows cannot fail.
func mustAprefRows(t *testing.T, a *Assembler, group []dataset.UserID, items []dataset.ItemID) [][]float64 {
	t.Helper()
	rows, err := a.AprefRows(group, items, 5)
	if err != nil {
		t.Fatalf("AprefRows: %v", err)
	}
	return rows
}

func TestAprefRowsMatchesSequentialFill(t *testing.T) {
	_, pred := testSubstrate(t)
	group := []dataset.UserID{0, 3, 7, 12, 25}
	items := []dataset.ItemID{0, 1, 5, 9, 17, 33, 39}

	sequential := New(pred, 1)
	parallel := New(pred, 8)
	want := mustAprefRows(t, sequential, group, items)
	got := mustAprefRows(t, parallel, group, items)
	if len(got) != len(want) {
		t.Fatalf("row count %d, want %d", len(got), len(want))
	}
	for ui := range want {
		for i := range want[ui] {
			if got[ui][i] != want[ui][i] {
				t.Errorf("row %d[%d]: parallel %v, sequential %v", ui, i, got[ui][i], want[ui][i])
			}
		}
	}
	// Values are predictions on [1,5] divided by 5 → within [0.2, 1].
	for ui, row := range want {
		for i, v := range row {
			if v < 0.2 || v > 1 {
				t.Errorf("row %d[%d] = %v outside [0.2,1]", ui, i, v)
			}
		}
	}
}

func TestAprefRowsReleaseRecyclesBuffers(t *testing.T) {
	_, pred := testSubstrate(t)
	a := New(pred, 1)
	group := []dataset.UserID{1, 2}
	items := []dataset.ItemID{0, 1, 2, 3}

	rows := mustAprefRows(t, a, group, items)
	first := &rows[0][0]
	a.Release(rows)
	for _, row := range rows {
		if row != nil {
			t.Fatalf("Release left a live row reference")
		}
	}
	// The next fill of the same shape should be able to reuse a pooled
	// buffer. sync.Pool gives no hard guarantee, so only check when the
	// pool did return one — the point is that reuse produces correct
	// values, which AprefRowsMatchesSequentialFill already pins.
	again := mustAprefRows(t, a, group, items)
	reused := false
	for _, row := range again {
		if &row[0] == first {
			reused = true
		}
	}
	_ = reused // informational; no assertion (pool behavior is advisory)
	seq := mustAprefRows(t, New(pred, 1), group, items)
	for ui := range seq {
		for i := range seq[ui] {
			if again[ui][i] != seq[ui][i] {
				t.Errorf("post-release row %d[%d] = %v, want %v", ui, i, again[ui][i], seq[ui][i])
			}
		}
	}
}

func TestAprefRowsEmptyGroup(t *testing.T) {
	_, pred := testSubstrate(t)
	a := New(pred, 4)
	rows, err := a.AprefRows(nil, []dataset.ItemID{1, 2}, 5)
	if err != nil {
		t.Fatalf("AprefRows: %v", err)
	}
	if len(rows) != 0 {
		t.Errorf("empty group produced %d rows", len(rows))
	}
}

// storePool returns the popularity ranking the liststore views cover.
func storePool(s *dataset.Store) []dataset.ItemID { return s.PopularityRanked() }

// TestAprefViewsMatchesDenseRows is the assembly-layer differential:
// rows copied out of list-store views (plus patch predictions) must be
// bit-identical to the dense batch-predicted rows, and the view set
// must build a problem whose lists verify against those rows.
func TestAprefViewsMatchesDenseRows(t *testing.T) {
	store, pred := testSubstrate(t)
	group := []dataset.UserID{0, 3, 7}
	pool := storePool(store)

	dense := New(pred, 1)
	served := New(pred, 4)
	served.AttachListStore(liststore.New(pred, pool, 16, 5))

	// Candidate slices: a pool prefix, a filtered subsequence (every
	// other item), and a slice with a beyond-pool patch tail.
	foreign := dataset.ItemID(10_000) // unknown item: predictors fall back to means
	slices := map[string][]dataset.ItemID{
		"prefix":   pool[:10],
		"filtered": {pool[0], pool[2], pool[4], pool[6], pool[8]},
		"patched":  {pool[1], pool[3], pool[5], foreign},
	}
	for name, items := range slices {
		want := mustAprefRows(t, dense, group, items)
		va, ok, err := served.AprefViews(group, items, 5)
		if err != nil {
			t.Fatalf("%s: AprefViews: %v", name, err)
		}
		if !ok {
			t.Fatalf("%s: store did not serve", name)
		}
		for ui := range want {
			for i := range want[ui] {
				if va.Rows[ui][i] != want[ui][i] {
					t.Errorf("%s: row %d[%d]: served %v, dense %v", name, ui, i, va.Rows[ui][i], want[ui][i])
				}
			}
		}
		// The views must verify against the rows: NewProblemFromViews
		// re-proves canonical order per member and errors otherwise.
		in := core.Input{Apref: va.Rows, Spec: consensus.AP(), Agg: core.NoAffinityAggregator{}, K: 1}
		p, err := core.NewProblemFromViews(in, va.Views)
		if err != nil {
			t.Fatalf("%s: views inconsistent with rows: %v", name, err)
		}
		p.Release()
	}
}

// TestAprefViewsFallsBack pins the conditions under which assembly
// declines the store: no store attached, divisor mismatch, and
// candidate slices mostly foreign to the pool.
func TestAprefViewsFallsBack(t *testing.T) {
	store, pred := testSubstrate(t)
	pool := storePool(store)
	group := []dataset.UserID{1, 2}

	bare := New(pred, 1)
	if _, ok, _ := bare.AprefViews(group, pool[:4], 5); ok {
		t.Error("assembler without a store served views")
	}

	a := New(pred, 1)
	a.AttachListStore(liststore.New(pred, pool, 16, 5))
	if _, ok, _ := a.AprefViews(group, pool[:4], 4); ok {
		t.Error("divisor mismatch served views")
	}
	foreign := []dataset.ItemID{9001, 9002, 9003, pool[0]}
	if _, ok, _ := a.AprefViews(group, foreign, 5); ok {
		t.Error("mostly-foreign candidate slice served views")
	}
	// A refused slice is served densely: none of it went through a patch
	// set. A covered slice with a remainder counts exactly the remainder.
	if n := a.ListStore().Stats().PatchItems; n != 0 {
		t.Errorf("refused slice counted %d patch items, want 0", n)
	}
	if _, ok, err := a.AprefViews(group, []dataset.ItemID{pool[0], pool[1], 9001}, 5); !ok || err != nil {
		t.Fatalf("covered slice with a remainder not served from views (ok %v, err %v)", ok, err)
	}
	if n := a.ListStore().Stats().PatchItems; n != 1 {
		t.Errorf("covered slice with a one-item remainder counted %d patch items, want 1", n)
	}
	if _, ok, _ := a.AprefViews(nil, pool[:4], 5); ok {
		t.Error("empty group served views")
	}
}

func TestWorkersDefaultsAndClamp(t *testing.T) {
	_, pred := testSubstrate(t)
	if w := New(pred, 0).Workers(); w < 1 {
		t.Errorf("default workers %d < 1", w)
	}
	if w := New(pred, 3).Workers(); w != 3 {
		t.Errorf("explicit workers = %d, want 3", w)
	}
	if New(pred, 3).Source() == nil {
		t.Errorf("Source accessor returned nil")
	}
}
