package engine

import (
	"math/rand"
	"reflect"
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
	var recs []dataset.Rating
	seen := make(map[[2]int]bool)
	for n := 0; n < 500; n++ {
		u, it := rng.Intn(30), rng.Intn(40)
		if seen[[2]int{u, it}] {
			continue
		}
		seen[[2]int{u, it}] = true
		recs = append(recs, dataset.Rating{
			User:  dataset.UserID(u),
			Item:  dataset.ItemID(it),
			Value: float64(1 + rng.Intn(5)),
		})
	}
	s, err := dataset.FromRatings(recs)
	if err != nil {
		t.Fatal(err)
	}
	p, err := cf.NewPredictor(s, 7)
	if err != nil {
		t.Fatal(err)
	}
	return s, p
}

// newServed builds an assembler over a list store of the given
// capacity whose views are built in place from pred.
func newServed(pred *cf.Predictor, pool []dataset.ItemID, capacity int) (*Assembler, *liststore.Store) {
	lists := liststore.NewOver(LocalBuilder(pred, pred.Positions(pool)), pool, capacity)
	return New(pred, lists), lists
}

// TestDenseRowsMatchSequentialPredictions: rows filled concurrently
// hold exactly the one-at-a-time predictions, divided onto [0,1].
func TestDenseRowsMatchSequentialPredictions(t *testing.T) {
	_, pred := testSubstrate(t)
	group := []dataset.UserID{0, 3, 7, 12, 25}
	items := []dataset.ItemID{0, 1, 5, 9, 17, 33, 39}

	got := New(pred, nil).denseRows(group, items)
	if len(got) != len(group) {
		t.Fatalf("row count %d, want %d", len(got), len(group))
	}
	for ui, u := range group {
		for i, it := range items {
			if want := pred.Predict(u, it) / 5; got[ui][i] != want {
				t.Errorf("row %d[%d]: %v, want %v", ui, i, got[ui][i], want)
			}
			// Values are predictions on [1,5] divided by 5 → within [0.2, 1].
			if v := got[ui][i]; v < 0.2 || v > 1 {
				t.Errorf("row %d[%d] = %v outside [0.2,1]", ui, i, v)
			}
		}
	}
}

// TestProblemReleaseRecyclesRows: release hands every row back and
// drops the caller's reference to it (a read after release fails on a
// nil row instead of reading a recycled buffer), and a problem
// assembled from recycled rows runs to the same result.
func TestProblemReleaseRecyclesRows(t *testing.T) {
	_, pred := testSubstrate(t)
	a := New(pred, nil)
	group := []dataset.UserID{1, 2}
	items := []dataset.ItemID{0, 1, 2, 3}
	in := core.Input{Spec: consensus.AP(), Agg: core.NoAffinityAggregator{}, K: 2}

	rows := a.denseRows(group, items)
	a.release(rows)
	for i, row := range rows {
		if row != nil {
			t.Fatalf("release left a live reference to row %d", i)
		}
	}

	run := func() core.Result {
		t.Helper()
		p, release, err := a.Problem(in, group, items)
		if err != nil {
			t.Fatalf("Problem: %v", err)
		}
		res, err := p.Run(core.ModeGRECA)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		release()
		return res
	}
	first := run()
	if again := run(); !reflect.DeepEqual(first, again) {
		t.Errorf("problem over recycled rows diverges:\nfirst: %+v\nagain: %+v", first, again)
	}
}

// storePool returns the popularity ranking the liststore views cover.
func storePool(s *dataset.Store) []dataset.ItemID { return s.PopularityRanked() }

// TestViewRowsMatchDenseRows is the assembly-layer differential: rows
// copied out of list-store views must be bit-identical to the dense
// batch-predicted rows, the view set must build a problem whose lists
// verify against those rows, and Problem must answer the same from
// either assembler.
func TestViewRowsMatchDenseRows(t *testing.T) {
	store, pred := testSubstrate(t)
	group := []dataset.UserID{0, 3, 7}
	pool := storePool(store)

	dense := New(pred, nil)
	served, _ := newServed(pred, pool, 16)

	// Candidate slices: a pool prefix and a filtered subsequence (every
	// other item).
	slices := map[string][]dataset.ItemID{
		"prefix":   pool[:10],
		"filtered": {pool[0], pool[2], pool[4], pool[6], pool[8]},
	}
	in := core.Input{Spec: consensus.AP(), Agg: core.NoAffinityAggregator{}, K: 1}
	for name, items := range slices {
		want := dense.denseRows(group, items)
		localOf, ok := served.covers(items)
		if !ok {
			t.Fatalf("%s: store does not cover the slice", name)
		}
		rows, views, err := served.viewRows(group, len(items), localOf)
		if err != nil {
			t.Fatalf("%s: viewRows: %v", name, err)
		}
		if !reflect.DeepEqual(rows, want) {
			t.Errorf("%s: served rows diverge from dense\nserved: %v\ndense:  %v", name, rows, want)
		}
		// The views must verify against the rows: NewProblemFromViews
		// re-proves canonical order per member and errors otherwise.
		vin := in
		vin.Apref = rows
		p, err := core.NewProblemFromViews(vin, views)
		if err != nil {
			t.Fatalf("%s: views inconsistent with rows: %v", name, err)
		}
		p.Release()

		results := make([]core.Result, 2)
		for i, a := range []*Assembler{dense, served} {
			p, release, err := a.Problem(in, group, items)
			if err != nil {
				t.Fatalf("%s: Problem: %v", name, err)
			}
			if results[i], err = p.Run(core.ModeGRECA); err != nil {
				t.Fatalf("%s: Run: %v", name, err)
			}
			release()
		}
		if !reflect.DeepEqual(results[0], results[1]) {
			t.Errorf("%s: served problem diverges from dense\ndense:  %+v\nserved: %+v", name, results[0], results[1])
		}
	}
}

// TestProblemFallsBackToDense pins when assembly declines the store: a
// slice the pool does not cover whole — however much of it it covers —
// is assembled densely, touching no view, and answers what a store-less
// assembler answers; a covered slice goes through the views.
func TestProblemFallsBackToDense(t *testing.T) {
	store, pred := testSubstrate(t)
	pool := storePool(store)
	group := []dataset.UserID{1, 2}
	in := core.Input{Spec: consensus.AP(), Agg: core.NoAffinityAggregator{}, K: 1}
	a, lists := newServed(pred, pool, 16)

	assemble := func(a *Assembler, items []dataset.ItemID) core.Result {
		t.Helper()
		p, release, err := a.Problem(in, group, items)
		if err != nil {
			t.Fatalf("Problem(%v): %v", items, err)
		}
		defer release()
		res, err := p.Run(core.ModeGRECA)
		if err != nil {
			t.Fatalf("Run(%v): %v", items, err)
		}
		return res
	}
	for _, items := range [][]dataset.ItemID{
		{9001, 9002, 9003, pool[0]},          // mostly foreign
		{pool[0], pool[1], pool[2], 9001},    // covered but for a foreign tail
		{pool[0], pool[1], pool[3], pool[2]}, // covered but for the order of its tail
	} {
		got := assemble(a, items)
		if st := lists.Stats(); st.ViewBuilds+st.ViewHits != 0 {
			t.Errorf("%v: an uncovered slice went through the store: %+v", items, st)
		}
		if want := assemble(New(pred, nil), items); !reflect.DeepEqual(got, want) {
			t.Errorf("%v: dense fallback diverges from the store-less assembler\ngot:  %+v\nwant: %+v", items, got, want)
		}
	}
	assemble(a, []dataset.ItemID{pool[0], pool[1], pool[3]})
	if st := lists.Stats(); st.ViewBuilds != 2 {
		t.Errorf("covered slice: %+v, want 2 view builds", st)
	}
}
