package cf

import (
	"cmp"
	"math/bits"
	"sync/atomic"

	"repro/internal/dataset"
)

// This file is the neighborhood fill kernel. A fill does not score the
// user against every other user: it walks the user's own row once and,
// for each of its items, that item's rater list, so the work is the
// number of (co-rater, shared item) pairs — the entries of the rater
// lists of the user's own items — instead of one merge-join per user in
// the store. The users the walk touches are exactly the co-raters. The
// same walk from a rater, run by the ingest, names every user whose
// similarity to the rater a rating can move and hands it that
// similarity's dot product (see NoteIngestScoped).

// userBits is a bitset over the dense user index.
type userBits []uint64

func (b userBits) set(i int)      { b[i>>6] |= 1 << (uint(i) & 63) }
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

// scanCoraters walks u's row and the rater list of each of its items,
// marking every other user it meets — u's co-raters — in a fresh bitset
// over the dense user index, and accumulating into dot (len(users), all
// zero) each co-rater's dot product with u, bit-identically to
// cosineCorated's merge-join of the two rows, in either argument order:
// per co-rater the products are added in ascending item order, and
// where a (user, item) pair was rated more than once the two runs —
// both in log order — are paired first with first up to the shorter
// one.
func (p *Predictor) scanCoraters(u dataset.UserID, dot []float64) userBits {
	co := make(userBits, (len(p.users.ids)+63)>>6)
	ru := p.store.ByUser(u)
	entries := 0
	for i := 0; i < len(ru); {
		j := i + 1
		for j < len(ru) && ru[j].Item == ru[i].Item {
			j++
		}
		own := ru[i:j]
		raters := p.store.ByItem(own[0].Item)
		entries += len(raters)
		for k := 0; k < len(raters); {
			v := raters[k].User
			e := k + 1
			for e < len(raters) && raters[e].User == v {
				e++
			}
			if vi, ok := p.users.of(v); ok && v != u {
				co.set(vi)
				theirs := raters[k:e]
				for t := 0; t < len(own) && t < len(theirs); t++ {
					dot[vi] += own[t].Value * theirs[t].Value
				}
			}
			k = e
		}
		i = j
	}
	p.work.listEntries.Add(int64(entries))
	return co
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
	all := make([]Neighbor, 0, co.count())
	for w, word := range co {
		for ; word != 0; word &= word - 1 {
			vi := w<<6 + bits.TrailingZeros64(word)
			d := dot[vi]
			if d == 0 {
				continue
			}
			dot[vi] = 0 // leave the pooled vector zeroed
			v := p.users.ids[vi]
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
// descending, user ascending on ties.
func compareNeighbors(a, b Neighbor) int {
	if a.Sim != b.Sim {
		return cmp.Compare(b.Sim, a.Sim)
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
