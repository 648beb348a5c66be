package engine

import (
	"errors"
	"reflect"
	"testing"

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
	items := append(append([]dataset.ItemID{}, pool[:10]...), 999) // 999: patch item

	local := New(pred, 4)
	local.AttachListStore(liststore.New(pred, pool, 64, 5))
	want, ok, err := local.AprefViews(group, items, 5)
	if err != nil || !ok {
		t.Fatalf("local AprefViews: ok=%v err=%v", ok, err)
	}
	wantDense := mustAprefRows(t, local, group, items)

	var errViews, errRows error
	origin := liststore.New(pred, pool, 64, 5)
	fetched := New(pred, 4)
	fetched.AttachListStore(liststore.NewOver(func(users []dataset.UserID) ([]*liststore.View, error) {
		if errViews != nil {
			return nil, errViews
		}
		return origin.AcquireMulti(users)
	}, pool, 1, 5)) // one slot, fewer than the group: every assembly fetches
	fetched.AttachRows(func(users []dataset.UserID, its []dataset.ItemID, dst [][]float64) error {
		if errRows != nil {
			return errRows
		}
		for i, u := range users {
			copy(dst[i], pred.PredictBatch(u, its))
		}
		return nil
	})

	got, ok, err := fetched.AprefViews(group, items, 5)
	if err != nil || !ok {
		t.Fatalf("fetched AprefViews: ok=%v err=%v", ok, err)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) || !reflect.DeepEqual(want.Views, got.Views) {
		t.Error("assembly through the attached seams diverges from the local one")
	}
	if gotDense := mustAprefRows(t, fetched, group, items); !reflect.DeepEqual(wantDense, gotDense) {
		t.Error("dense rows through the attached filler diverge from the local ones")
	}

	errRows = errors.New("rows unavailable")
	if _, _, err := fetched.AprefViews(group, items, 5); !errors.Is(err, errRows) {
		t.Errorf("patch-row failure: err = %v, want the filler's", err)
	}
	if _, err := fetched.AprefRows(group, items, 5); !errors.Is(err, errRows) {
		t.Errorf("dense-row failure: err = %v, want the filler's", err)
	}
	errViews = errors.New("views unavailable")
	if _, _, err := fetched.AprefViews(group, items, 5); !errors.Is(err, errViews) {
		t.Errorf("view failure: err = %v, want the builder's", err)
	}
}
