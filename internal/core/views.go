package core

import (
	"fmt"
	"sync"
)

// SortedView is an immutable, descending-sorted preference list over a
// base pool of items — the unit the precomputed list store persists per
// user. Scores[p] is the normalized preference in [0,1] of pool position
// p (an index into whatever pool the view was built over), and Order
// lists the pool positions in canonical order (descending score,
// ascending position on ties): the i-th entry of the sorted list is
// (Order[i], Scores[Order[i]]). Each score is stored once, 12 bytes per
// pool position. A view is shared by every problem built from it and
// must never be mutated.
type SortedView struct {
	Scores []float64
	Order  []int32
}

// ViewSet couples the group-level pool→problem mapping with the
// per-member views. LocalOf[p] is the local item index of pool position
// p in this problem, or a negative value when pool position p is not a
// candidate of this problem (rated by a member, or truncated). Every
// local index 0..m-1 must be produced exactly once by the mapping;
// NewProblemFromViews verifies this per member.
//
// LocalOf must preserve pool order: if p < q are both mapped then
// LocalOf[p] < LocalOf[q]. This is what lets a member's list inherit the
// view's tie order (ties sort by ascending pool position, which then
// coincides with ascending local key). Candidate slices derived by
// scanning the pool in order — the engine's only shape — satisfy it by
// construction; a non-monotone mapping with tied scores fails
// verification instead of mis-sorting.
type ViewSet struct {
	LocalOf []int32
	Members []*SortedView
}

// entryPool recycles list entry buffers across view-built problems —
// the allocator hot spot of per-request problem construction.
var entryPool = sync.Pool{New: func() any { s := make([]Entry, 0); return &s }}

// getPooledEntries returns an empty entry buffer with at least n
// capacity plus its pool handle for Release.
func getPooledEntries(n int) ([]Entry, *[]Entry) {
	bp := entryPool.Get().(*[]Entry)
	if cap(*bp) < n {
		*bp = make([]Entry, 0, n)
	}
	return (*bp)[:0], bp
}

// NewProblemFromViews builds the same validated, list-built instance as
// NewProblem, but takes each member's preference list from that
// member's pre-sorted view, filtered through vs.LocalOf, instead of
// re-sorting all m entries — O(B + m) per member against NewProblem's
// O(m log m) — and draws entry buffers from a pool that Release
// refills.
//
// in.Apref must still carry the dense rows (exact scoring, agreement
// lists, and validation read them) and must agree with the views: every
// member's list is verified to be exactly the canonical sort of its
// Apref row, so a Problem returned by this constructor is bit-identical
// in behavior to NewProblem(in). Any inconsistency between views and
// rows is an error, never a silently different ranking.
//
// The constructor is agnostic to where the views came from: a group's
// views may be built in place or fetched from the workers owning each
// member's shard, and per-member verification makes a wrong routing a
// loud construction error, not a wrong answer.
//
// Callers that drop the problem after a bounded lifetime (run it, copy
// the result out) should hand its buffers back via Release; problems
// that escape simply skip Release and the pool re-allocates.
func NewProblemFromViews(in Input, vs ViewSet) (*Problem, error) {
	p, err := newShell(in)
	if err != nil {
		return nil, err
	}
	if len(vs.Members) != p.g {
		return nil, fmt.Errorf("core: ViewSet has %d members, want %d", len(vs.Members), p.g)
	}

	// seen is the per-member duplicate-key scratch, stamped with u+1 so
	// it never needs clearing between members.
	seen := make([]int, p.m)
	p.prefList = make([]*List, p.g)
	for u := 0; u < p.g; u++ {
		entries, handle := getPooledEntries(p.m)
		entries = viewEntries(vs.Members[u], vs.LocalOf, entries)
		*handle = entries
		p.pooled = append(p.pooled, handle)
		if err := verifyCanonical(in.Apref[u], entries, seen, u+1); err != nil {
			p.Release()
			return nil, fmt.Errorf("core: member %d view inconsistent with Apref: %w", u, err)
		}
		l := presortedList(PrefList, u, -1, entries)
		p.prefList[u] = l
		p.lists = append(p.lists, l)
	}

	p.buildAffinity()
	p.buildAgreementLists(getPooledEntries)
	p.finishTotals()
	return p, nil
}

// viewEntries appends the view's entries whose pool position maps into
// the problem, remapped to local keys, in the view's order. A monotone
// localOf keeps that order canonical: higher value first, lower local
// key on ties — exactly what sorting the dense row would yield.
func viewEntries(v *SortedView, localOf []int32, out []Entry) []Entry {
	for _, p := range v.Order {
		if p < 0 || int(p) >= len(localOf) || int(p) >= len(v.Scores) {
			continue // outside the mapped pool: not a candidate
		}
		if l := localOf[p]; l >= 0 {
			out = append(out, Entry{Key: int(l), Value: v.Scores[p]})
		}
	}
	return out
}

// verifyCanonical proves entries is exactly the canonical sort of row:
// every key appears once, every value matches the row, and the order is
// descending with ascending-key ties. Together these force the unique
// canonical permutation, which is what makes NewProblemFromViews
// bit-identical to NewProblem by construction. seen is caller-provided
// scratch stamped with stamp (avoids clearing).
func verifyCanonical(row []float64, entries []Entry, seen []int, stamp int) error {
	if len(entries) != len(row) {
		return fmt.Errorf("list has %d entries, want %d", len(entries), len(row))
	}
	prevKey := -1
	prevValue := 0.0
	for i, e := range entries {
		if e.Key < 0 || e.Key >= len(row) {
			return fmt.Errorf("entry %d key %d outside [0,%d)", i, e.Key, len(row))
		}
		if seen[e.Key] == stamp {
			return fmt.Errorf("duplicate key %d", e.Key)
		}
		seen[e.Key] = stamp
		if e.Value != row[e.Key] {
			return fmt.Errorf("entry %d: value %g differs from Apref[%d]=%g", i, e.Value, e.Key, row[e.Key])
		}
		if i > 0 && (e.Value > prevValue || (e.Value == prevValue && e.Key < prevKey)) {
			return fmt.Errorf("entry %d (key %d, value %g) out of canonical order", i, e.Key, e.Value)
		}
		prevKey, prevValue = e.Key, e.Value
	}
	return nil
}

// Release returns the problem's pooled entry buffers (view-built
// problems only; a no-op for NewProblem-built ones). The caller must
// hold the only remaining references: nothing may Run or read the
// problem afterwards, and Run reports an error if tried. Release is
// idempotent.
func (p *Problem) Release() {
	if len(p.pooled) == 0 {
		return
	}
	for _, handle := range p.pooled {
		*handle = (*handle)[:0]
		entryPool.Put(handle)
	}
	p.pooled = nil
	p.released = true
}
