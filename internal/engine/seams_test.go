package engine

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/liststore"
)

// TestAttachedSeamsMatchLocal drives the assembler through both of its
// seams the way the distributed world does — a store over a foreign
// builder (views materialized elsewhere, here by a second local store)
// and an attached row filler — and pins that the assembly is
// byte-identical to the in-process one, and that either seam's typed
// error fails the assembly verbatim.
func TestAttachedSeamsMatchLocal(t *testing.T) {
	store, pred := testSubstrate(t)
	pool := store.PopularityRanked()
	group := []dataset.UserID{0, 3, 7, 12}
	items := pool[:10]                                  // assembled from views
	foreign := []dataset.ItemID{901, 902, 903, pool[0]} // assembled densely

	local, _ := newServed(pred, pool, 64)
	localOf, _ := local.covers(items)
	wantRows, wantViews, err := local.viewRows(group, len(items), localOf)
	if err != nil {
		t.Fatalf("local viewRows: %v", err)
	}
	wantDense := mustDenseRows(t, local, group, foreign)

	var errViews, errRows error
	_, origin := newServed(pred, pool, 64)
	fetched := New(pred, liststore.NewOver(func(users []dataset.UserID) ([]*liststore.View, error) {
		if errViews != nil {
			return nil, errViews
		}
		return origin.AcquireMulti(users)
	}, pool, 1)) // one slot, fewer than the group: every assembly fetches
	fetched.AttachRows(func(users []dataset.UserID, its []dataset.ItemID, dst [][]float64) error {
		if errRows != nil {
			return errRows
		}
		for i, u := range users {
			copy(dst[i], pred.PredictBatch(u, its))
		}
		return nil
	})

	gotRows, gotViews, err := fetched.viewRows(group, len(items), localOf)
	if err != nil {
		t.Fatalf("fetched viewRows: %v", err)
	}
	if !reflect.DeepEqual(wantRows, gotRows) || !reflect.DeepEqual(wantViews, gotViews) {
		t.Error("assembly through the attached seams diverges from the local one")
	}
	if gotDense := mustDenseRows(t, fetched, group, foreign); !reflect.DeepEqual(wantDense, gotDense) {
		t.Error("dense rows through the attached filler diverge from the local ones")
	}

	in := core.Input{Spec: consensus.AP(), Agg: core.NoAffinityAggregator{}, K: 1}
	errRows = errors.New("rows unavailable")
	if _, release, err := fetched.Problem(in, group, items); err != nil {
		t.Errorf("a view-served assembly went through the row filler: %v", err)
	} else {
		release()
	}
	if _, _, err := fetched.Problem(in, group, foreign); !errors.Is(err, errRows) {
		t.Errorf("dense-row failure: err = %v, want the filler's", err)
	}
	errViews = errors.New("views unavailable")
	if _, _, err := fetched.Problem(in, group, items); !errors.Is(err, errViews) {
		t.Errorf("view failure: err = %v, want the builder's", err)
	}
}
