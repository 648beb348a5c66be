package cf

import (
	"cmp"
	"math/bits"
	"sync/atomic"

	"repro/internal/dataset"
)

// This file is the neighborhood fill kernel. A fill does not score the
// user against every other user: it walks the user's own row once and,
// for each of its items, that item's rater column, so the work is the
// number of (co-rater, shared item) pairs — the entries of the rater
// columns of the user's own items — instead of one merge-join per user in
// the store. The users the walk touches are exactly the co-raters. The
// same walk from a rater, run by the ingest, names every user whose
// similarity to the rater a rating can move and hands it that
// similarity's dot product (see NoteIngestScoped).

// userBits is a bitset over the store's user positions.
type userBits []uint64

func (b userBits) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
func (b userBits) clear(i int)    { b[i>>6] &^= 1 << (uint(i) & 63) }
func (b userBits) has(i int) bool { return b[i>>6]>>(uint(i)&63)&1 == 1 }

// count returns the number of set bits.
func (b userBits) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// scanWork counts what fills, similarity calls and repairs cost, for the
// tests that pin the kernel's complexity and the margin's size.
type scanWork struct {
	// listEntries is the number of rater-list entries walks visited.
	listEntries atomic.Int64
	// pairMerges is the number of pairwise row merge-joins taken.
	pairMerges atomic.Int64
	// repaired counts the cached neighborhoods a rating re-ranked its
	// rater in; repairDrops those it dropped instead, because the
	// re-ranking left an incomplete list shorter than k.
	repaired, repairDrops atomic.Int64
}

// scanCoraters walks u's row and the rater column of each of its items,
// marking every other user it meets — u's co-raters — in a fresh bitset
// over the store's user positions, and accumulating into dot (one entry
// per user, all zero) each co-rater's dot product with u,
// bit-identically to cosineCorated's merge-join of the two rows, in
// either argument order: per co-rater the products are added in
// ascending item order, and where a (user, item) pair was rated more
// than once the two runs — both in log order — are paired first with
// first up to the shorter one.
//
// A column records each rater's position, so an entry costs one
// multiply-add and one bit, with no lookup. The walk meets u in every
// column it reads; u's own slot is cleared at the end instead of tested
// per entry.
func (p *Predictor) scanCoraters(u dataset.UserID, dot []float64) userBits {
	co := make(userBits, (len(dot)+63)>>6)
	ui, ok := p.users.Pos(u)
	if !ok {
		return co
	}
	ru := p.store.RowAt(ui)
	entries := 0
	for i := 0; i < ru.Len(); {
		j := i + 1
		for j < ru.Len() && ru.Pos[j] == ru.Pos[i] {
			j++
		}
		col := p.store.RatersAt(int(ru.Pos[i]))
		entries += col.Len()
		if col.Repeats() {
			addRuns(ru.Value[i:j], col, dot, co)
		} else {
			// Every rater holds one entry, u included, so u's run is one
			// rating too.
			ov := ru.Value[i]
			vals := col.Value[:len(col.Pos)]
			for k, vi := range col.Pos {
				dot[vi] += ov * vals[k]
				co.set(int(vi))
			}
		}
		i = j
	}
	dot[ui] = 0
	co.clear(ui)
	p.work.listEntries.Add(int64(entries))
	return co
}

// addRuns is the walk over a column where some rater holds a run of
// entries: the rater's run and u's own run of the item, own (its values
// in log order), are paired first with first up to the shorter one.
func addRuns(own []float64, col dataset.Column, dot []float64, co userBits) {
	pos, vals := col.Pos, col.Value
	for k := 0; k < len(pos); {
		vi := pos[k]
		e := k + 1
		for e < len(pos) && pos[e] == vi {
			e++
		}
		for t := 0; t < len(own) && k+t < e; t++ {
			dot[vi] += own[t] * vals[k+t]
		}
		co.set(int(vi))
		k = e
	}
}

// fill computes u's neighborhood from the store: the leading p.keep
// entries of the canonical ranking of u's positive-similarity co-raters,
// or all of them, marked complete. Candidates are scored in Users()
// order — the set bits ascending — so keepTop sees the sequence a scan
// over every user would hand it.
func (p *Predictor) fill(u dataset.UserID) neighborhood {
	pooled := p.dots.Get().(*[]float64)
	dot := *pooled
	co := p.scanCoraters(u, dot)
	nu := p.norm(u)
	ids := p.store.Users()
	all := make([]Neighbor, 0, co.count())
	for w, word := range co {
		for ; word != 0; word &= word - 1 {
			vi := w<<6 + bits.TrailingZeros64(word)
			d := dot[vi]
			if d == 0 {
				continue
			}
			dot[vi] = 0 // leave the pooled vector zeroed
			v := ids[vi]
			if s := cosineFrom(d, nu, p.normAt(v, vi)); s > 0 {
				all = append(all, Neighbor{User: v, Sim: s})
			}
		}
	}
	p.dots.Put(pooled)
	complete := len(all) <= p.keep
	all = keepTop(all, p.keep, compareNeighbors)
	return neighborhood{ns: append([]Neighbor(nil), all...), complete: complete}
}

// compareNeighbors is the canonical neighborhood order: similarity
// descending, user ascending on ties. A similarity is never NaN (every
// rating value is on the 1..5 scale), so plain comparisons order it.
func compareNeighbors(a, b Neighbor) int {
	switch {
	case a.Sim > b.Sim:
		return -1
	case a.Sim < b.Sim:
		return 1
	}
	return cmp.Compare(a.User, b.User)
}

// cosineFrom finishes a cosine from a non-zero dot product (both
// callers skip a zero one before paying for the norms) and the two
// vector norms: the one place the zero-norm guard and the division
// live, so the fill and the pairwise path cannot drift apart.
func cosineFrom(dot, nu, nv float64) float64 {
	if nu == 0 || nv == 0 {
		return 0
	}
	return dot / (nu * nv)
}
