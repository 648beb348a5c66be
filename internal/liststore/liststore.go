// Package liststore is the precomputed sorted-list store of the
// recommendation engine: per user, it materializes a descending-sorted
// preference view over the popularity candidate pool — the lists
// GRECA's instance-optimal scan consumes — so problem assembly filters
// a view instead of re-sorting every list on every request. The
// classic sorted-access precomputation trade-off: pay one batch
// prediction and one sort per user at ingest, amortize them across the
// sweep traffic.
//
// A Store is the one cache between the predictor and the problem: the
// engine maps a candidate slice onto the pool and serves it from views
// when the pool covers the whole slice, densely through the predictor
// otherwise. Views are immutable once built; a rating ingest drops all
// of them (InvalidateAll) for rebuild on next use.
// See DESIGN.md's "Sorted-list store" section.
//
// How a missing view is materialized is the store's one seam, the
// Builder: in-process it predicts and sorts (engine.LocalBuilder), on a
// distributed router it fetches the owning worker's scores over the
// wire and sorts them (SetBuilder swaps one for the other and keeps
// what is resident). Eviction, invalidation and coherence with ingest
// are the store's own and identical under both. A deployment has one
// store, its router's: a shard worker computes the scores it serves and
// keeps none.
//
// A view is its pool-order scores plus the pool positions in canonical
// order, as int32: 12 bytes per pool position, each score stored once.
//
// A Store is one mutex, one CLOCK ring, one capacity budget and one set
// of counters, whatever the world's shard count: the lock is held only
// to link or unlink a slot, never during a build. Candidate mappings
// are pool-indexed (user-independent) and computed per call without the
// lock.
package liststore

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/dataset"
)

// DefaultMaxUsers bounds materialized per-user views. A view over a
// MovieLens-scale pool (~4000 items) is ≈ 48 KB (8-byte scores plus a
// 4-byte sorted position each), so 1024 users cap the store near 50MB
// worst-case.
const DefaultMaxUsers = 1024

// View is one user's materialized preference state over the store
// pool: Scores, the dense normalized scores in pool order (problem rows
// are filled from them), and Order, the pool positions in canonical
// order (problem lists are filtered from it). Both are immutable and
// shared; callers must never mutate them.
type View = core.SortedView

// Builder materializes the views of users, in order — every miss of
// one AcquireMulti call arrives in one Builder call, so a builder that
// pays per call (a wire fetch) pays once per assembly. Each view must
// cover the store's pool. An error fails every user of the call. A
// Builder must be safe for concurrent use.
type Builder func(users []dataset.UserID) ([]*View, error)

// Stats is the store's observability surface for /stats: view traffic
// (hits vs builds, rebuilds after invalidation) and lifecycle counters.
type Stats struct {
	// ViewHits counts acquired views answered by a materialized one;
	// ViewBuilds counts materializations (first use or after eviction);
	// Rebuilds is the subset of builds that followed an InvalidateAll.
	ViewHits   uint64 `json:"view_hits"`
	ViewBuilds uint64 `json:"view_builds"`
	Rebuilds   uint64 `json:"rebuilds"`
	// Invalidations counts views dropped by InvalidateAll (every
	// resident view, on each rating ingest); Evictions counts views
	// dropped by capacity pressure.
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	// Size is the number of materialized views; PoolSize the length of
	// the base pool the views cover.
	Size     int `json:"size"`
	PoolSize int `json:"pool_size"`
}

// userEntry tracks one user's view slot. The acquirer that inserted it
// builds the view and closes done; everyone else finding it mid-build
// waits on done. view is atomic because acquirers read it while the
// builder publishes it without the store lock — an entry with a nil
// view is still mid-build, or failed with err (written before done
// closes).
type userEntry struct {
	done chan struct{}
	view atomic.Pointer[View]
	err  error
	ref  atomic.Bool // CLOCK reference bit
}

// Store materializes and serves per-user sorted preference views over a
// fixed base pool. Views build lazily on first acquire through the
// store's Builder, are bounded by a CLOCK (second-chance) policy, and
// all drop on InvalidateAll. Safe for concurrent use.
type Store struct {
	build    Builder
	pool     []dataset.ItemID
	maxUsers int

	mu      sync.Mutex
	entries map[dataset.UserID]*userEntry
	ring    []dataset.UserID // CLOCK ring over resident users
	hand    int
	// invalidated marks users whose next build is a rebuild.
	invalidated map[dataset.UserID]bool

	viewHits      atomic.Uint64
	viewBuilds    atomic.Uint64
	rebuilds      atomic.Uint64
	invalidations atomic.Uint64
	evictions     atomic.Uint64
}

// NewOver builds a store that materializes missing views through build,
// over pool (the popularity-ranked candidate base; the slice is
// retained and must not change). capacity bounds materialized views;
// capacity <= 0 selects DefaultMaxUsers. The builder's scores are the
// [0,1] preferences the engine assembles problems from, so views feed
// problems directly.
func NewOver(build Builder, pool []dataset.ItemID, capacity int) *Store {
	if capacity <= 0 {
		capacity = DefaultMaxUsers
	}
	return &Store{
		build:       build,
		pool:        pool,
		maxUsers:    capacity,
		entries:     make(map[dataset.UserID]*userEntry),
		invalidated: make(map[dataset.UserID]bool),
	}
}

// SetBuilder makes build the store's Builder for every later miss and
// keeps every resident view: a view is a function of the world's
// ratings alone, not of which builder produced it, so a view built in
// place is the one a worker would send. A router calls it once, before
// serving, to fetch instead of build; it is not synchronized with
// in-flight acquires.
func (s *Store) SetBuilder(build Builder) { s.build = build }

// Pool returns the base pool the views cover (shared, read-only).
func (s *Store) Pool() []dataset.ItemID { return s.pool }

// Capacity returns the bound on materialized views.
func (s *Store) Capacity() int { return s.maxUsers }

// AcquireMulti returns every listed user's view, in order,
// materializing the missing ones through one Builder call. The returned
// views are immutable and remain valid even if the store evicts or
// invalidates their users afterwards (callers keep a reference; the
// store just forgets it).
//
// A miss links a mid-build entry under the store lock before anything is
// built: concurrent acquirers of the same user find it and wait instead
// of building twice, and an ingest's sweep unlinks a mid-build entry
// like any other — the view its builder then delivers reaches the
// callers already waiting and nobody else. That unlink is the whole
// ingest fence: a build in flight across an ingest's sweep never
// becomes resident. A call builds its own misses
// before it waits on anyone else's, so calls over overlapping groups
// cannot deadlock. A builder error is returned as is, to this call and
// to every waiter of the entries it covered, and leaves nothing
// resident.
func (s *Store) AcquireMulti(users []dataset.UserID) ([]*View, error) {
	out := make([]*View, len(users))
	var (
		// unsettled lists the slots whose entry had no view at lookup:
		// this call's misses, and entries another call is still building.
		unsettled   []unsettledView
		misses      []dataset.UserID
		missEntries []*userEntry
	)
	for i, u := range users {
		s.mu.Lock()
		e, ok := s.entries[u]
		if ok {
			e.ref.Store(true)
			s.mu.Unlock()
			s.viewHits.Add(1)
			if out[i] = e.view.Load(); out[i] == nil {
				unsettled = append(unsettled, unsettledView{slot: i, entry: e})
			}
			continue
		}
		e = &userEntry{done: make(chan struct{})}
		e.ref.Store(true) // enter referenced: a just-built view is never the next sweep's first victim
		s.evictLocked()
		s.entries[u] = e
		s.ring = append(s.ring, u)
		rebuilt := s.invalidated[u]
		delete(s.invalidated, u)
		s.mu.Unlock()
		s.viewBuilds.Add(1)
		if rebuilt {
			s.rebuilds.Add(1)
		}
		unsettled = append(unsettled, unsettledView{slot: i, entry: e})
		misses = append(misses, u)
		missEntries = append(missEntries, e)
	}
	if len(misses) > 0 {
		s.buildMisses(misses, missEntries)
	}
	for _, us := range unsettled {
		<-us.entry.done
		if us.entry.err != nil {
			return nil, us.entry.err
		}
		out[us.slot] = us.entry.view.Load()
	}
	return out, nil
}

// unsettledView is one AcquireMulti slot waiting on its entry's build.
type unsettledView struct {
	slot  int
	entry *userEntry
}

// buildMisses hands one call's misses to the builder and settles their
// entries: a view is published into its entry (still linked or not — a
// sweep may have unlinked it meanwhile), a failure unlinks the entry so
// the next acquire starts over.
func (s *Store) buildMisses(misses []dataset.UserID, entries []*userEntry) {
	views, err := s.build(misses)
	if err == nil && len(views) != len(misses) {
		err = fmt.Errorf("liststore: builder returned %d views for %d users", len(views), len(misses))
	}
	for j, e := range entries {
		u := misses[j]
		switch {
		case err != nil:
			e.err = err
		case views[j] == nil || len(views[j].Scores) != len(s.pool):
			e.err = fmt.Errorf("liststore: built view for user %d does not cover the %d-item pool", u, len(s.pool))
		default:
			e.view.Store(views[j])
		}
		if e.err != nil {
			s.unlink(u, e)
		}
		close(e.done)
	}
}

// unlink removes u's slot if it still holds e.
func (s *Store) unlink(u dataset.UserID, e *userEntry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.entries[u] != e {
		return
	}
	delete(s.entries, u)
	for i, ru := range s.ring {
		if ru == u {
			s.ring = append(s.ring[:i], s.ring[i+1:]...)
			if s.hand > i {
				s.hand--
			}
			return
		}
	}
}

// evictLocked makes room for one more view via CLOCK: sweep the ring,
// give referenced entries a second chance, evict the first
// unreferenced one. Callers hold mu.
func (s *Store) evictLocked() {
	for len(s.ring) >= s.maxUsers {
		if s.hand >= len(s.ring) {
			s.hand = 0
		}
		u := s.ring[s.hand]
		e := s.entries[u]
		if e.ref.CompareAndSwap(true, false) {
			s.hand++
			continue
		}
		delete(s.entries, u)
		s.ring = append(s.ring[:s.hand], s.ring[s.hand+1:]...)
		s.evictions.Add(1)
	}
}

// sortScratch recycles the (position, score) entries NewView sorts: a
// view keeps only the sorted positions, so the entries live for one sort.
var sortScratch = sync.Pool{New: func() any { return new([]core.Entry) }}

// NewView builds a view from its dense pool-order normalized scores —
// what a Builder returns — deriving the canonical order. The canonical
// order is a strict total order on (score, pool position), so Order is
// a function of the scores alone — not of which sort produced it, or
// where: a fetched view is bit-identical to one built in place, which
// is why the wire only carries the score vectors. The sort is
// core.SortCanonical's distribution kernel, O(len(scores)) on
// score-shaped input, over pooled scratch; the view allocates only its
// Order.
func NewView(scores []float64) *View {
	bp := sortScratch.Get().(*[]core.Entry)
	entries := slices.Grow((*bp)[:0], len(scores))[:len(scores)]
	for p, v := range scores {
		entries[p] = core.Entry{Key: p, Value: v}
	}
	core.SortCanonical(entries)
	order := make([]int32, len(entries))
	for i, e := range entries {
		order[i] = int32(e.Key)
	}
	*bp = entries
	sortScratch.Put(bp)
	return &View{Scores: scores, Order: order}
}

// InvalidateAll drops every materialized view — the one thing a rating
// ingest does to the store: a rating shifts the fallback means and can
// reach any user's neighborhood, and no view is re-read often enough
// between ratings to be worth proving untouched. Subsequent Acquires
// rebuild, counted as rebuilds. Returns the number of entries dropped.
// In-flight builds are unlinked with the rest, so whatever they finish
// computing is returned to their callers but never served again.
func (s *Store) InvalidateAll() int {
	s.mu.Lock()
	n := len(s.entries)
	for u := range s.entries {
		delete(s.entries, u)
		s.invalidated[u] = true
	}
	s.ring = s.ring[:0]
	s.hand = 0
	s.mu.Unlock()
	s.invalidations.Add(uint64(n))
	return n
}

// MapCandidates maps a candidate slice onto the pool: localOf[p] is the
// index of pool position p within items, or -1. The walk consumes items
// in order against the pool in order, so the mapping is monotone —
// exactly the shape core.ViewSet.LocalOf requires — and covered reports
// whether it reached every item. An item beyond the pool, out of
// popularity order or duplicated leaves the slice uncovered, and its
// assembly dense. A first walk decides cover and allocates nothing, so
// an uncovered slice costs no mapping; a covered one gets a mapping of
// its own from a second walk.
func (s *Store) MapCandidates(items []dataset.ItemID) (localOf []int32, covered bool) {
	j := 0
	for _, it := range s.pool {
		if j < len(items) && it == items[j] {
			j++
		}
	}
	if j < len(items) {
		return nil, false
	}
	localOf = make([]int32, len(s.pool))
	j = 0
	for p, it := range s.pool {
		if j < len(items) && it == items[j] {
			localOf[p] = int32(j)
			j++
		} else {
			localOf[p] = -1
		}
	}
	return localOf, true
}

// Len reports the number of materialized views.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Stats snapshots the store's counters. The counters are atomic and
// only eventually consistent with each other.
func (s *Store) Stats() Stats {
	return Stats{
		ViewHits:      s.viewHits.Load(),
		ViewBuilds:    s.viewBuilds.Load(),
		Rebuilds:      s.rebuilds.Load(),
		Invalidations: s.invalidations.Load(),
		Evictions:     s.evictions.Load(),
		Size:          s.Len(),
		PoolSize:      len(s.pool),
	}
}
