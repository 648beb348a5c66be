// Package core implements GRECA (Group Recommendation with temporal
// Affinities), the paper's instance-optimal top-k algorithm (§3), plus
// the baselines it is evaluated against. The algorithm consumes
// descending-sorted lists — per-member absolute preference lists,
// static affinity lists and one periodic-drift affinity list per time
// period — using sequential accesses only (NRA style), maintains
// interval bounds for every encountered item, and terminates early via
// the paper's global-threshold and buffer conditions.
package core

import "fmt"

// ListKind distinguishes the three list families GRECA scans.
type ListKind int

const (
	// PrefList holds (item, apref) entries of one group member.
	PrefList ListKind = iota
	// StaticList holds (pair, affS) entries.
	StaticList
	// DriftList holds (pair, periodic drift) entries for one period.
	DriftList
	// AgreementList holds (item, 1−|apref_u − apref_v|) entries of one
	// member pair — the paper's pair-wise disagreement lists (Lemma 1,
	// following its reference [3]) recast as descending agreement so
	// the same cursor machinery applies: unseen items have agreement
	// at most the cursor, i.e. disagreement at least 1−cursor, which
	// is what lets disagreement-heavy consensus functions (PD V2)
	// terminate quickly.
	AgreementList
)

// String names the kind for diagnostics.
func (k ListKind) String() string {
	switch k {
	case PrefList:
		return "pref"
	case StaticList:
		return "static"
	case DriftList:
		return "drift"
	case AgreementList:
		return "agreement"
	default:
		return fmt.Sprintf("ListKind(%d)", int(k))
	}
}

// Entry is one list element: Key is an item index for PrefList or a
// pair index for affinity lists; Value is the sorted score.
type Entry struct {
	Key   int
	Value float64
}

// List is one descending-sorted input list with a sequential-access
// cursor. MinValue and the first entry's value are list metadata
// (available without accesses, like any precomputed index statistic);
// everything else costs one sequential access per entry.
//
// A list may be constructed lazily (agreement lists are — see
// Problem.buildAgreementLists): its entries are then built and sorted
// only when the run first consumes one, and its min/max metadata is
// computed by a cheap linear scan when a bound first reads it. Readers
// inside this package go through Min, Top, and CursorValue, which
// resolve laziness; the Entries and MinValue fields are populated once
// the list materializes (and from construction for eager lists).
type List struct {
	Kind ListKind
	// Owner is the group-member index the list belongs to (the
	// paper's per-user partitioning of preference and affinity lists).
	Owner int
	// Period is the period index for DriftList (-1 otherwise).
	Period int
	// Entries are sorted by descending Value (ties by ascending Key
	// for determinism). Empty until materialization for lazy lists.
	Entries []Entry
	// MinValue is the smallest value in the list, used as the lower
	// bound for unseen entries. For lazy lists read Min instead.
	MinValue float64

	pos  int // number of entries consumed
	lazy *lazyList
}

// lazyList is the deferred-construction state of a List: the length is
// known up front, min/max are computed by scan on first bound read, and
// build fills + canonically sorts the entries on first consumption.
// Both closures run at most once, on the single goroutine driving the
// run (problems are not safe for concurrent runs).
type lazyList struct {
	n        int
	min, max float64
	scanned  bool
	scan     func() (min, max float64)
	build    func() []Entry
}

// newLazyList defers a list's construction: n is the entry count, scan
// yields the value range without sorting, build produces the entries in
// canonical order.
func newLazyList(kind ListKind, owner, period, n int, scan func() (float64, float64), build func() []Entry) *List {
	return &List{Kind: kind, Owner: owner, Period: period, lazy: &lazyList{n: n, scan: scan, build: build}}
}

// materialize builds a lazy list's entries; a no-op for eager or
// already-built lists.
func (l *List) materialize() {
	if l.lazy == nil {
		return
	}
	l.Entries = l.lazy.build()
	if len(l.Entries) > 0 {
		l.MinValue = l.Entries[len(l.Entries)-1].Value
	}
	l.lazy = nil
}

// ensureStats resolves a lazy list's min/max without sorting.
func (l *List) ensureStats() {
	if !l.lazy.scanned {
		l.lazy.min, l.lazy.max = l.lazy.scan()
		l.lazy.scanned = true
	}
}

// Min is the smallest value in the list — the lower bound for unseen
// entries. Unlike the MinValue field it is lazy-aware: an unbuilt list
// answers from a linear scan, never forcing the sort.
func (l *List) Min() float64 {
	if l.lazy != nil {
		l.ensureStats()
		return l.lazy.min
	}
	return l.MinValue
}

// Top is the largest value in the list (0 when empty) — the cursor
// bound before the first read. Lazy-aware like Min.
func (l *List) Top() float64 {
	if l.lazy != nil {
		l.ensureStats()
		return l.lazy.max
	}
	if len(l.Entries) == 0 {
		return 0
	}
	return l.Entries[0].Value
}

// SortCanonical orders entries by descending Value with ascending-Key
// ties — the canonical order of every list in this package, and the
// order of a SortedView's Order. The order is a strict total order
// (keys are distinct), so the result does not depend on how it is
// produced: a handful of entries is sorted by insertion, everything
// else by the distribution kernel in sort.go. A NaN Value leaves the
// order unspecified (never a panic).
func SortCanonical(entries []Entry) {
	if len(entries) <= insertionCutoff {
		insertionSort(entries)
		return
	}
	distributionSort(entries, compareCanonical)
}

// sortEntries is the internal alias of SortCanonical.
func sortEntries(entries []Entry) { SortCanonical(entries) }

// newList sorts entries descending and fills metadata.
func newList(kind ListKind, owner, period int, entries []Entry) *List {
	sortEntries(entries)
	return presortedList(kind, owner, period, entries)
}

// presortedList wraps entries already in canonical order (descending
// Value, ascending-Key ties) without re-sorting — the merge path's
// constructor.
func presortedList(kind ListKind, owner, period int, entries []Entry) *List {
	l := &List{Kind: kind, Owner: owner, Period: period, Entries: entries}
	if len(entries) > 0 {
		l.MinValue = entries[len(entries)-1].Value
	}
	return l
}

// Exhausted reports whether every entry has been consumed.
func (l *List) Exhausted() bool { return l.pos >= l.Len() }

// Next consumes and returns the next entry; ok is false when the list
// is exhausted. Each successful Next is one sequential access. The
// first Next on a lazy list builds and sorts its entries.
func (l *List) Next() (Entry, bool) {
	if l.Exhausted() {
		return Entry{}, false
	}
	l.materialize()
	e := l.Entries[l.pos]
	l.pos++
	return e, true
}

// CursorValue is the upper bound for any unseen entry in the list: the
// value of the most recently read entry, or the list maximum before
// the first read (sorted-list metadata). Reading it before the first
// Next never forces a lazy list's sort — the maximum comes from Top.
func (l *List) CursorValue() float64 {
	if l.pos == 0 {
		return l.Top()
	}
	return l.Entries[l.pos-1].Value
}

// Len returns the number of entries (known without materializing).
func (l *List) Len() int {
	if l.lazy != nil {
		return l.lazy.n
	}
	return len(l.Entries)
}

// reset rewinds the cursor so the same problem can be re-run.
func (l *List) reset() { l.pos = 0 }

// PairIndex maps member-index pairs (i<j) of a group of size g onto
// the dense range [0, g(g-1)/2). This is the canonical ordering of all
// pairwise affinity storage in the engine.
func PairIndex(g, i, j int) int {
	if i == j || i < 0 || j < 0 || i >= g || j >= g {
		panic(fmt.Sprintf("core: bad pair (%d,%d) for group size %d", i, j, g))
	}
	if i > j {
		i, j = j, i
	}
	return i*(2*g-i-1)/2 + (j - i - 1)
}

// NumPairs returns g(g-1)/2.
func NumPairs(g int) int { return g * (g - 1) / 2 }
