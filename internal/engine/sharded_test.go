package engine

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/dataset"
	"repro/internal/liststore"
	"repro/internal/shard"
)

// TestAprefViewsShardedIdentical: an assembler over a 4-way-sharded
// list store produces byte-identical view
// assemblies to the unsharded one — rows, sorted views, and patches —
// for mixed-shard groups, in both sequential and parallel fills.
func TestAprefViewsShardedIdentical(t *testing.T) {
	store, pred := testSubstrate(t)
	pool := store.PopularityRanked()
	m, _ := shard.New(4)

	for _, workers := range []int{1, 8} {
		plain := New(pred, workers)
		plain.AttachListStore(liststore.New(pred, pool, 64, 5))
		sharded := New(pred, workers)
		sharded.AttachListStore(liststore.NewSharded(pred, pool, 64, 5, m))

		group := []dataset.UserID{0, 3, 7, 12, 25, 4}
		// Guarantee the group genuinely mixes shards.
		seen := make(map[int]bool)
		for _, u := range group {
			seen[m.Of(int64(u))] = true
		}
		if len(seen) < 2 {
			t.Fatalf("test group spans %d shards, want >= 2", len(seen))
		}
		items := append(append([]dataset.ItemID{}, pool[:10]...), 999) // 999: patch item
		want, ok1, err1 := plain.AprefViews(group, items, 5)
		got, ok2, err2 := sharded.AprefViews(group, items, 5)
		if err1 != nil || err2 != nil {
			t.Fatalf("workers=%d: AprefViews errored (plain %v, sharded %v)", workers, err1, err2)
		}
		if !ok1 || !ok2 {
			t.Fatalf("workers=%d: view assembly declined (plain %v, sharded %v)", workers, ok1, ok2)
		}
		if !reflect.DeepEqual(want.Rows, got.Rows) {
			t.Errorf("workers=%d: rows diverge", workers)
		}
		if !reflect.DeepEqual(want.Views.LocalOf, got.Views.LocalOf) {
			t.Errorf("workers=%d: mappings diverge", workers)
		}
		for ui := range want.Views.Members {
			w, g := want.Views.Members[ui], got.Views.Members[ui]
			if !reflect.DeepEqual(w.View.Entries, g.View.Entries) {
				t.Errorf("workers=%d member %d: sorted views diverge", workers, ui)
			}
			if !reflect.DeepEqual(w.Patch, g.Patch) {
				t.Errorf("workers=%d member %d: patches diverge", workers, ui)
			}
		}
		plain.Release(want.Rows)
		sharded.Release(got.Rows)
	}
}

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
	}, pool, 0, 5, nil))
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
