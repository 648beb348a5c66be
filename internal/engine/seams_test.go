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

// TestAttachedSeamsMatchLocal drives the assembler through its one
// seam the way the distributed world does — a store over a foreign
// builder (views materialized elsewhere, here by a second local store)
// — and pins that the assembly is byte-identical to the in-process one,
// that the builder's typed error fails a view-served assembly verbatim,
// and that a dense assembly, predicted from the assembler's own
// predictor, never reaches the builder and so still answers.
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

	var errViews error
	_, origin := newServed(pred, pool, 64)
	fetched := New(pred, liststore.NewOver(func(users []dataset.UserID) ([]*liststore.View, error) {
		if errViews != nil {
			return nil, errViews
		}
		return origin.AcquireMulti(users)
	}, pool, 1)) // one slot, fewer than the group: every assembly fetches

	gotRows, gotViews, err := fetched.viewRows(group, len(items), localOf)
	if err != nil {
		t.Fatalf("fetched viewRows: %v", err)
	}
	if !reflect.DeepEqual(wantRows, gotRows) || !reflect.DeepEqual(wantViews, gotViews) {
		t.Error("assembly through the attached seam diverges from the local one")
	}

	in := core.Input{Spec: consensus.AP(), Agg: core.NoAffinityAggregator{}, K: 1}
	errViews = errors.New("views unavailable")
	if _, _, err := fetched.Problem(in, group, items); !errors.Is(err, errViews) {
		t.Errorf("view failure: err = %v, want the builder's", err)
	}
	if _, release, err := fetched.Problem(in, group, foreign); err != nil {
		t.Errorf("a dense assembly went through the failing builder: %v", err)
	} else {
		release()
	}
}
