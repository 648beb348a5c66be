// Package engine is the assembly layer of the recommendation pipeline:
// it turns (group, candidate items) into the core problem GRECA runs.
// Whether a problem is served from the sorted-list store — rows copied
// out of each member's materialized view, lists filtered instead of
// re-sorted — or from dense batch-predicted rows is decided here and
// nowhere else, per request, by whether the store's pool covers the
// whole candidate slice. Rows recycle through a sync.Pool. The assembler
// sits between the preference layer (the cf.Predictor, beside the
// liststore.Store materialized from it) and the core problem builders;
// see DESIGN.md. A view's scores come from one function, Scores: the
// in-process builder sorts them into a view, a shard worker serves them
// as they are and keeps none.
package engine

import (
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/liststore"
)

// prefScale maps the 1..5 rating scale onto the [0,1] absolute
// preferences GRECA consumes: every prediction the engine hands the
// core — view scores and dense rows — is divided by it.
const prefScale = 5

// Assembler builds core problems from a cf.Predictor and a list store.
// It is immutable after New and safe for concurrent use; a single
// Assembler is meant to be shared by all traffic against one World.
type Assembler struct {
	pred *cf.Predictor
	rows sync.Pool // *[]float64, capacity grows to the largest row seen
	// lists is the sorted-list store. Where its views come from — built
	// in place or fetched from shard workers — is the store's builder's
	// business, and the only thing that differs between deployments.
	lists *liststore.Store
}

// New builds an Assembler over pred that serves problems from lists
// whenever its pool covers the candidate slice.
func New(pred *cf.Predictor, lists *liststore.Store) *Assembler {
	a := &Assembler{pred: pred, lists: lists}
	a.rows.New = func() any { s := make([]float64, 0); return &s }
	return a
}

// LocalBuilder is the in-process liststore.Builder: per user, the view
// scores (Scores) plus one canonical sort (linear; the prediction
// dominates) — the pay-once cost the store amortizes. The users of one
// call build concurrently.
func LocalBuilder(pred *cf.Predictor, pos []int32) liststore.Builder {
	return func(users []dataset.UserID) ([]*liststore.View, error) {
		out := make([]*liststore.View, len(users))
		forEach(len(users), func(i int) {
			out[i] = liststore.NewView(Scores(pred, pos, users[i]))
		})
		return out, nil
	}
}

// Scores returns u's view scores: one batch prediction over the pool,
// normalized onto [0,1], in pool order. pos is the pool mapped once onto
// the predictor's item positions (cf.Predictor.Positions), so a call
// maps no item. It is what LocalBuilder sorts and what a shard worker
// serves.
func Scores(pred *cf.Predictor, pos []int32, u dataset.UserID) []float64 {
	scores := make([]float64, len(pos))
	pred.PredictPositionsInto(u, pos, scores)
	for p := range scores {
		scores[p] /= prefScale
	}
	return scores
}

// forEach runs fill(i) for i in [0,n) over at most GOMAXPROCS
// goroutines, the caller's among them. Each fill writes only its own
// slot, so scheduling never changes the output.
func forEach(n int, fill func(int)) {
	procs := runtime.GOMAXPROCS(0)
	if n <= 1 || procs <= 1 {
		for i := 0; i < n; i++ {
			fill(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fill(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < procs && w < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

// Problem fills in.Apref with the group's [0,1] preferences over items
// and builds the core problem. When the store's pool covers the whole
// slice in pool order, each member's row is copied out of its
// materialized view through the pool→candidate mapping and the problem
// filters the pre-sorted views (core.NewProblemFromViews); otherwise
// every row is predicted densely from the assembler's own predictor and
// the problem sorts its own lists (core.NewProblem). Both build
// bit-identical problems.
//
// release hands the problem's rows back to the assembler's pool; call
// it exactly once, when nothing can read the problem anymore, or never
// when the problem escapes (the pool then re-allocates). A view
// builder failure fails the assembly with its typed error; a dense
// assembly cannot fail before the core problem build.
func (a *Assembler) Problem(in core.Input, group []dataset.UserID, items []dataset.ItemID) (*core.Problem, func(), error) {
	var (
		prob *core.Problem
		err  error
	)
	if localOf, ok := a.covers(items); ok {
		var views core.ViewSet
		if in.Apref, views, err = a.viewRows(group, len(items), localOf); err != nil {
			return nil, nil, err
		}
		prob, err = core.NewProblemFromViews(in, views)
	} else {
		in.Apref = a.denseRows(group, items)
		prob, err = core.NewProblem(in)
	}
	rows := in.Apref
	if err != nil {
		a.release(rows)
		return nil, nil, err
	}
	return prob, func() {
		a.release(rows)
		prob.Release()
	}, nil
}

// covers maps items onto the store's pool and reports whether the
// mapping covers every one of them.
func (a *Assembler) covers(items []dataset.ItemID) ([]int32, bool) {
	if a.lists == nil || len(items) == 0 {
		return nil, false
	}
	return a.lists.MapCandidates(items)
}

// denseRows returns the g×m matrix of normalized predictions in pooled
// rows: one member per task, each resolving that member's neighborhood
// exactly once and predicting in place into its row.
func (a *Assembler) denseRows(group []dataset.UserID, items []dataset.ItemID) [][]float64 {
	out := make([][]float64, len(group))
	forEach(len(group), func(ui int) {
		row := a.getRow(len(items))
		a.pred.PredictBatchInto(group[ui], items, row)
		for i := range row {
			row[i] /= prefScale
		}
		out[ui] = row
	})
	return out
}

// viewRows assembles the group's m-item rows through the list store:
// the whole group's views come from one AcquireMulti (residents served,
// misses materialized together by the store's builder), and each
// member's row is copied out of its view through localOf. No
// prediction, no re-sorting.
func (a *Assembler) viewRows(group []dataset.UserID, m int, localOf []int32) ([][]float64, core.ViewSet, error) {
	views, err := a.lists.AcquireMulti(group)
	if err != nil {
		return nil, core.ViewSet{}, err
	}
	rows := make([][]float64, len(group))
	for ui, v := range views {
		row := a.getRow(m)
		for p, l := range localOf {
			if l >= 0 {
				row[l] = v.Scores[p]
			}
		}
		rows[ui] = row
	}
	return rows, core.ViewSet{LocalOf: localOf, Members: views}, nil
}

// release returns pooled rows. The caller must hold the only remaining
// references: nothing may read the rows after this.
func (a *Assembler) release(rows [][]float64) {
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
	// No zeroing: predictions are total, so every element is
	// overwritten before the row is read.
	return (*p)[:n]
}
