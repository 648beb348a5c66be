// Package engine is the assembly layer of the recommendation pipeline:
// it turns (group, candidate items) into the inputs the GRECA core
// consumes — dense absolute-preference rows, and, when the sorted-list
// store can serve the group, pre-sorted view/patch sets that let the
// core merge instead of re-sort. Rows fill concurrently over a worker
// pool and recycle through a sync.Pool. The assembler sits between the
// preference layer (the configured predictor behind cf.Source, beside
// the liststore.Store materialized from it) and the core problem
// builders; see DESIGN.md.
package engine

import (
	"runtime"
	"sync"

	"repro/internal/cf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/liststore"
)

// Assembler fills preference matrices from a cf.Source. It is
// immutable after New (and AttachListStore / AttachRows) and safe for
// concurrent use; a single Assembler is meant to be shared by all
// traffic against one World.
type Assembler struct {
	src     cf.Source
	into    cf.BatchInto // src's in-place path, when it has one
	workers int
	rows    sync.Pool // *[]float64, capacity grows to the largest row seen
	// lists is the optional sorted-list store; nil disables the
	// view-served path. Where its views come from — built in place or
	// fetched from shard workers — is the store's builder's business.
	lists *liststore.Store
	// fillRows is the row seam every prediction outside a view goes
	// through (dense rows, patch sets): in-process predictions by
	// default, a batched worker fetch once AttachRows swaps it.
	fillRows RowFiller
}

// RowFiller fills dst[i] (len(items) long) with users[i]'s raw (1..5
// scale) predictions for items. Implementations must be safe for
// concurrent use; an error fails the whole assembly and is propagated
// verbatim (the distributed filler returns the transport's typed
// sentinels).
type RowFiller func(users []dataset.UserID, items []dataset.ItemID, dst [][]float64) error

// New builds an Assembler over src with the given per-call worker
// bound (GOMAXPROCS if workers <= 0). workers = 1 forces sequential
// assembly — the baseline the parallel benchmarks compare against.
func New(src cf.Source, workers int) *Assembler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	a := &Assembler{src: src, workers: workers}
	a.into, _ = src.(cf.BatchInto)
	a.fillRows = a.localRows
	a.rows.New = func() any { s := make([]float64, 0); return &s }
	return a
}

// localRows is the in-process RowFiller: one member per task over the
// assembler's workers, each resolving that member's neighborhood
// exactly once via the source's batch path (in place when it has one).
func (a *Assembler) localRows(users []dataset.UserID, items []dataset.ItemID, dst [][]float64) error {
	a.forEachMember(len(users), func(ui int) {
		if a.into != nil {
			a.into.PredictBatchInto(users[ui], items, dst[ui])
		} else {
			copy(dst[ui], a.src.PredictBatch(users[ui], items))
		}
	})
	return nil
}

// AttachListStore wires the sorted-list store into the assembler,
// enabling AprefViews. Call before the assembler starts serving
// traffic (it is not synchronized).
func (a *Assembler) AttachListStore(lists *liststore.Store) { a.lists = lists }

// AttachRows replaces the row seam (the distributed world routes it to
// the shard workers owning the users' hot state; workers are full
// replicas built from the identical configuration, so every fetched
// value is bit-identical to what the local path would compute). Call
// before the assembler starts serving traffic.
func (a *Assembler) AttachRows(fill RowFiller) { a.fillRows = fill }

// ListStore returns the attached sorted-list store, or nil.
func (a *Assembler) ListStore() *liststore.Store { return a.lists }

// Workers returns the per-call worker bound.
func (a *Assembler) Workers() int { return a.workers }

// Source returns the preference source the assembler reads.
func (a *Assembler) Source() cf.Source { return a.src }

// AprefRows returns the g×m matrix of predicted ratings divided by
// divisor (the engine passes 5 to map the 1..5 scale onto [0,1]),
// filled through the row seam.
//
// Row buffers come from an internal pool. Callers that drop the matrix
// after a bounded lifetime (run the problem, copy the result out)
// should hand it back via Release; callers that expose the matrix
// beyond their control must simply not Release it, and the pool
// re-allocates.
//
// The error is always nil for in-process reads; a worker that cannot
// serve fails the whole assembly with the transport's typed error.
func (a *Assembler) AprefRows(group []dataset.UserID, items []dataset.ItemID, divisor float64) ([][]float64, error) {
	out := make([][]float64, len(group))
	if len(group) == 0 {
		return out, nil
	}
	for ui := range out {
		out[ui] = a.getRow(len(items))
	}
	if err := a.fillRows(group, items, out); err != nil {
		a.Release(out)
		return nil, err
	}
	for _, row := range out {
		for i := range row {
			row[i] /= divisor
		}
	}
	return out, nil
}

// forEachMember runs fill(ui) for ui in [0,g) over at most
// min(workers, g) goroutines. Each fill writes only its own member's
// slot, so scheduling never changes the assembled output.
func (a *Assembler) forEachMember(g int, fill func(int)) {
	w := a.workers
	if w > g {
		w = g
	}
	if w <= 1 {
		for ui := 0; ui < g; ui++ {
			fill(ui)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for n := 0; n < w; n++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ui := range next {
				fill(ui)
			}
		}()
	}
	for ui := 0; ui < g; ui++ {
		next <- ui
	}
	close(next)
	wg.Wait()
}

// ViewAssembly is the product of a store-served assembly: the dense
// rows core.Input requires (pooled; hand back via Release) plus the
// view set NewProblemFromViews merges. Rows and views carry the same
// values, so a problem built from them is bit-identical to the dense
// path.
type ViewAssembly struct {
	Rows  [][]float64
	Views core.ViewSet
}

// AprefViews assembles the group's preference inputs through the
// sorted-list store: each member's dense row is copied out of the
// member's materialized view through the pool→candidate mapping, and
// only the uncovered remainder of the candidate slice (the patch set)
// goes through the row seam — no per-request re-scoring, no
// re-sorting. ok is false when the store is absent, the divisor
// disagrees with the store's, or the mapping covers less than half the
// slice (a candidate set foreign to the popularity pool assembles
// faster densely); callers then fall back to AprefRows + NewProblem.
//
// The whole group's views come from one AcquireMulti: residents are
// served from the store, and the misses are materialized together by
// the store's builder (concurrent in-process builds, or one fetch per
// owning worker). A builder or row-seam failure fails the assembly
// with its typed error.
func (a *Assembler) AprefViews(group []dataset.UserID, items []dataset.ItemID, divisor float64) (ViewAssembly, bool, error) {
	if a.lists == nil || a.lists.Divisor() != divisor || len(group) == 0 || len(items) == 0 {
		return ViewAssembly{}, false, nil
	}
	mapping := a.lists.MapCandidates(items)
	if mapping.Matched*2 < len(items) {
		return ViewAssembly{}, false, nil
	}
	views, err := a.lists.AcquireMulti(group)
	if err != nil {
		return ViewAssembly{}, false, err
	}
	patch := items[mapping.Matched:]
	g := len(group)
	var patchRows [][]float64
	if len(patch) > 0 {
		a.lists.NotePatched(len(patch))
		flat := make([]float64, g*len(patch))
		patchRows = make([][]float64, g)
		for ui := range patchRows {
			patchRows[ui] = flat[ui*len(patch) : (ui+1)*len(patch)]
		}
		if err := a.fillRows(group, patch, patchRows); err != nil {
			return ViewAssembly{}, false, err
		}
	}
	va := ViewAssembly{
		Rows: make([][]float64, g),
		Views: core.ViewSet{
			LocalOf: mapping.LocalOf,
			Members: make([]core.MemberView, g),
		},
	}
	// Everything that costs — builds, fetches, patch predictions — is
	// done; what is left per member is a copy through the mapping, less
	// than handing it to another goroutine would cost.
	for ui, v := range views {
		row := a.getRow(len(items))
		for p, l := range mapping.LocalOf {
			if l >= 0 {
				row[l] = v.Scores[p]
			}
		}
		mv := core.MemberView{View: v}
		if len(patch) > 0 {
			pe := make([]core.Entry, len(patch))
			for i, raw := range patchRows[ui] {
				val := raw / divisor
				row[mapping.Matched+i] = val
				pe[i] = core.Entry{Key: mapping.Matched + i, Value: val}
			}
			core.SortCanonical(pe)
			mv.Patch = pe
		}
		va.Rows[ui] = row
		va.Views.Members[ui] = mv
	}
	return va, true, nil
}

// Release returns AprefRows buffers to the pool. The caller must hold
// the only remaining references: nothing may read the rows after this.
func (a *Assembler) Release(rows [][]float64) {
	for i, row := range rows {
		if row == nil {
			continue
		}
		r := row[:0]
		a.rows.Put(&r)
		rows[i] = nil
	}
}

func (a *Assembler) getRow(n int) []float64 {
	p := a.rows.Get().(*[]float64)
	if cap(*p) < n {
		return make([]float64, n)
	}
	// No zeroing: Source predictions are total, so every element is
	// overwritten before the row is read.
	return (*p)[:n]
}
