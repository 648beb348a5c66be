// Package liststore is the precomputed sorted-list store of the
// recommendation engine: per user, it materializes a descending-sorted
// preference view over the popularity candidate pool — the lists
// GRECA's instance-optimal scan consumes — so problem assembly merges
// and patches instead of re-sorting every list on every request. The
// classic sorted-access precomputation trade-off: pay one batch
// prediction and one sort per user at ingest, amortize them across the
// sweep traffic.
//
// A Store is the one cache between the predictor and the problem: the
// engine asks it for (view, pool→candidate mapping) pairs, falls back
// to dense assembly when the store is disabled, and routes only the
// uncovered remainder of a candidate slice (the patch set) through the
// predictor. Views are immutable once built; a rating ingest drops all
// of them (InvalidateAll) for rebuild on next use. See DESIGN.md's
// "Sorted-list store" section.
//
// How a missing view is materialized is the store's one seam, the
// Builder: in-process it predicts and sorts (LocalBuilder), on a
// distributed router it fetches the owning worker's view over the wire.
// Eviction, invalidation and coherence with ingest are the store's own
// and identical under both.
//
// The Store is a thin fan-out over per-shard sub-stores: a shard.Map
// routes each user to the part holding its view slot, and every part
// keeps its own mutex, CLOCK ring, capacity budget, and counters.
// Acquiring or invalidating a view therefore locks exactly one shard —
// invalidation traffic on one shard never blocks view serving on
// another. Candidate mappings are pool-indexed (user-independent) and
// computed per call at the fan-out level, touching no shard.
package liststore

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/cf"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/shard"
)

// DefaultMaxUsers bounds materialized per-user views. A view over a
// MovieLens-scale pool (~4000 items) is ~96KB (dense scores + sorted
// entries), so 1024 users cap the store near 100MB worst-case.
const DefaultMaxUsers = 1024

// View is one user's materialized preference state over the store
// pool: the dense normalized scores in pool order (problem rows are
// filled from it) and the canonical descending-sorted view (problem
// lists are merged from it). Both are immutable and shared; callers
// must never mutate them.
type View struct {
	// Scores[p] is the normalized score of pool position p.
	Scores []float64
	// Sorted holds the same scores in canonical order (descending
	// value, ascending pool position on ties).
	Sorted *core.SortedView
}

// Builder materializes the views of users, in order — every miss of
// one AcquireMulti call arrives in one Builder call, so a builder that
// pays per call (a wire fetch) pays once per assembly. Each view must
// cover the store's pool. An error fails every user of the call. A
// Builder must be safe for concurrent use.
type Builder func(users []dataset.UserID) ([]*View, error)

// Mapping is a pool→candidate-slice mapping. LocalOf[p] is the index
// of pool position p within the candidate slice, or -1. Matched counts
// the covered prefix of the slice: items[:Matched] are served by the
// view, items[Matched:] are the patch set.
type Mapping struct {
	LocalOf []int32
	Matched int
}

// Stats is the store's observability surface for /stats: view traffic
// (hits vs builds, rebuilds after invalidation), lifecycle counters and
// patch volume. The per-user counters aggregate across shards (they are
// exactly the sum of StatsByShard); the patch counter is store-global,
// since a patch set is a property of the candidate slice, not of a
// shard.
type Stats struct {
	// ViewHits counts Acquire calls answered by a materialized view;
	// ViewBuilds counts materializations (first use or after eviction);
	// Rebuilds is the subset of builds that followed an Invalidate.
	ViewHits   uint64 `json:"view_hits"`
	ViewBuilds uint64 `json:"view_builds"`
	Rebuilds   uint64 `json:"rebuilds"`
	// Invalidations counts views dropped by Invalidate or InvalidateAll
	// (every resident view, on each rating ingest); Evictions counts
	// views dropped by capacity pressure.
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	// WarmLoads counts views installed from a snapshot restore instead
	// of built — the warm-restart observability hook.
	WarmLoads uint64 `json:"warm_loads"`
	// PatchItems is the total number of candidate items served through
	// patch sets instead of views (the uncovered remainder of a slice
	// an assembly actually served from views; see NotePatched).
	PatchItems uint64 `json:"patch_items"`
	// Size is the number of materialized views; PoolSize the length of
	// the base pool the views cover.
	Size     int `json:"size"`
	PoolSize int `json:"pool_size"`
}

// ShardStats is one shard part's slice of the per-user counters — the
// /stats per-shard breakdown. The fields sum exactly to the matching
// aggregate Stats fields. MaxUsers is the part's CLOCK budget (the
// store budget split across shards).
type ShardStats struct {
	ViewHits      uint64 `json:"view_hits"`
	ViewBuilds    uint64 `json:"view_builds"`
	Rebuilds      uint64 `json:"rebuilds"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	WarmLoads     uint64 `json:"warm_loads"`
	Size          int    `json:"size"`
	MaxUsers      int    `json:"max_users"`
}

// userEntry tracks one user's view slot. The acquirer that inserted it
// builds the view and closes done; everyone else finding it mid-build
// waits on done. view is atomic because acquirers and exports read it
// while the builder publishes it without the part lock — an entry with
// a nil view is still mid-build, or failed with err (written before
// done closes).
type userEntry struct {
	done chan struct{}
	view atomic.Pointer[View]
	err  error
	ref  atomic.Bool // CLOCK reference bit
}

// storePart is one shard's sub-store: the view slots of exactly the
// users hashing to this shard, under their own mutex, CLOCK ring, and
// capacity budget.
type storePart struct {
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
	warmLoads     atomic.Uint64
}

func newStorePart(maxUsers int) *storePart {
	return &storePart{
		maxUsers:    maxUsers,
		entries:     make(map[dataset.UserID]*userEntry),
		invalidated: make(map[dataset.UserID]bool),
	}
}

// Store materializes and serves per-user sorted preference views over a
// fixed base pool, fanned out over per-shard sub-stores. Views build
// lazily on first acquire through the store's Builder, are bounded per
// shard by a CLOCK (second-chance) policy over that shard's users, and
// drop on Invalidate. Safe for concurrent use.
type Store struct {
	build   Builder
	pool    []dataset.ItemID
	divisor float64
	sm      shard.Map
	parts   []*storePart

	patchItems atomic.Uint64
}

// New builds an unsharded store over src and pool; see NewSharded.
func New(src cf.Source, pool []dataset.ItemID, maxUsers int, divisor float64) *Store {
	return NewSharded(src, pool, maxUsers, divisor, nil)
}

// NewSharded builds a store whose views are built in place from src
// (LocalBuilder, GOMAXPROCS workers); maxUsers <= 0 selects
// DefaultMaxUsers. See NewOver for the remaining parameters. Returns
// nil for a nil source.
func NewSharded(src cf.Source, pool []dataset.ItemID, maxUsers int, divisor float64, m shard.Map) *Store {
	if src == nil {
		return nil
	}
	if maxUsers <= 0 {
		maxUsers = DefaultMaxUsers
	}
	return NewOver(LocalBuilder(src, pool, divisor, 0), pool, maxUsers, divisor, m)
}

// NewOver builds a store that materializes missing views through build,
// over pool (the popularity-ranked candidate base; the slice is
// retained and must not change), partitioned into one sub-store per
// shard of m (nil = one part, the unsharded layout). capacity bounds
// materialized views across the whole store and is split across the
// parts, each getting at least one slot; with m = Single the one part
// keeps the whole budget. capacity <= 0 retains nothing: every acquire
// goes to the builder and the view is handed to its caller only.
// divisor is the normalization the engine applies to predictions (5
// maps the 1..5 rating scale onto [0,1]); stored scores are pre-divided
// so views feed problems directly. Returns nil for an empty pool — a
// store over nothing serves nothing.
func NewOver(build Builder, pool []dataset.ItemID, capacity int, divisor float64, m shard.Map) *Store {
	if len(pool) == 0 || build == nil || divisor == 0 {
		return nil
	}
	sm := shard.Normalize(m)
	s := &Store{
		build:   build,
		pool:    pool,
		divisor: divisor,
		sm:      sm,
	}
	// Split hands every part at least one slot, so "retain nothing" is
	// its own case rather than a zero passed down.
	budgets := make([]int, sm.N())
	if capacity > 0 {
		budgets = shard.Split(sm, capacity)
	}
	s.parts = make([]*storePart, sm.N())
	for i := range s.parts {
		s.parts[i] = newStorePart(budgets[i])
	}
	return s
}

// LocalBuilder is the in-process Builder: per user, one batch prediction
// over pool, normalized by divisor, plus one canonical sort (linear; the
// prediction dominates) — the pay-once cost the store amortizes. The
// users of one call build concurrently over at most workers goroutines
// (GOMAXPROCS if <= 0; 1 builds sequentially).
func LocalBuilder(src cf.Source, pool []dataset.ItemID, divisor float64, workers int) Builder {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	one := func(u dataset.UserID) *View {
		scores := src.PredictBatch(u, pool)
		for i, v := range scores {
			scores[i] = v / divisor
		}
		return NewView(scores)
	}
	return func(users []dataset.UserID) ([]*View, error) {
		out := make([]*View, len(users))
		var next atomic.Int64
		work := func() {
			for i := int(next.Add(1)) - 1; i < len(users); i = int(next.Add(1)) - 1 {
				out[i] = one(users[i])
			}
		}
		var wg sync.WaitGroup
		for n := 1; n < workers && n < len(users); n++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		work()
		wg.Wait()
		return out, nil
	}
}

// Pool returns the base pool the views cover (shared, read-only).
func (s *Store) Pool() []dataset.ItemID { return s.pool }

// Divisor returns the normalization the stored scores carry.
func (s *Store) Divisor() float64 { return s.divisor }

// Sharding returns the shard map routing users onto sub-stores.
func (s *Store) Sharding() shard.Map { return s.sm }

// part returns the sub-store holding u's view slot.
func (s *Store) part(u dataset.UserID) *storePart {
	return s.parts[s.sm.Of(int64(u))]
}

// Acquire returns u's view; see AcquireMulti.
func (s *Store) Acquire(u dataset.UserID) (*View, error) {
	vs, err := s.AcquireMulti([]dataset.UserID{u})
	if err != nil {
		return nil, err
	}
	return vs[0], nil
}

// AcquireMulti returns every listed user's view, in order,
// materializing the missing ones through one Builder call. The returned
// views are immutable and remain valid even if the store evicts or
// invalidates their users afterwards (callers keep a reference; the
// store just forgets it). Each lookup locks only that user's shard
// part, so acquirers on different shards never contend.
//
// A miss links a mid-build entry under the part lock before anything is
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
		p := s.part(u)
		p.mu.Lock()
		e, ok := p.entries[u]
		if ok {
			e.ref.Store(true)
			p.mu.Unlock()
			p.viewHits.Add(1)
			if out[i] = e.view.Load(); out[i] == nil {
				unsettled = append(unsettled, unsettledView{slot: i, entry: e})
			}
			continue
		}
		e = &userEntry{done: make(chan struct{})}
		e.ref.Store(true) // enter referenced: a just-built view is never the next sweep's first victim
		if p.maxUsers > 0 {
			p.evictLocked()
			p.entries[u] = e
			p.ring = append(p.ring, u)
		}
		rebuilt := p.invalidated[u]
		delete(p.invalidated, u)
		p.mu.Unlock()
		p.viewBuilds.Add(1)
		if rebuilt {
			p.rebuilds.Add(1)
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
			s.part(u).unlink(u, e)
		}
		close(e.done)
	}
}

// unlink removes u's slot if it still holds e.
func (p *storePart) unlink(u dataset.UserID, e *userEntry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.entries[u] != e {
		return
	}
	delete(p.entries, u)
	p.dropFromRingLocked(u)
}

// dropFromRingLocked removes u from the CLOCK ring, keeping the hand on
// the same successor. Callers hold the part's mu.
func (p *storePart) dropFromRingLocked(u dataset.UserID) {
	for i, ru := range p.ring {
		if ru == u {
			p.ring = append(p.ring[:i], p.ring[i+1:]...)
			if p.hand > i {
				p.hand--
			}
			return
		}
	}
}

// evictLocked makes room for one more view via CLOCK: sweep the ring,
// give referenced entries a second chance, evict the first
// unreferenced one. Callers hold the part's mu.
func (p *storePart) evictLocked() {
	for len(p.ring) >= p.maxUsers {
		if p.hand >= len(p.ring) {
			p.hand = 0
		}
		u := p.ring[p.hand]
		e := p.entries[u]
		if e.ref.CompareAndSwap(true, false) {
			p.hand++
			continue
		}
		delete(p.entries, u)
		p.ring = append(p.ring[:p.hand], p.ring[p.hand+1:]...)
		p.evictions.Add(1)
	}
}

// NewView builds a view from its dense pool-order normalized scores —
// what a Builder returns — deriving the canonical sorted side. The
// canonical order is a strict total order on (score, pool position), so
// the sorted side is a function of the scores alone — not of which sort
// produced it, or where: a restored or fetched view is bit-identical to
// one built in place, which is why snapshots and the wire only carry
// the score vectors. The sort is core.SortCanonical's distribution
// kernel, O(len(scores)) on score-shaped input.
func NewView(scores []float64) *View {
	entries := make([]core.Entry, len(scores))
	for p, v := range scores {
		entries[p] = core.Entry{Key: p, Value: v}
	}
	core.SortCanonical(entries)
	return &View{Scores: scores, Sorted: &core.SortedView{Entries: entries}}
}

// Invalidate drops u's view alone (the next Acquire rebuilds) — targeted
// cache management, not the ingest hook. Only u's shard part is locked.
// It reports whether a view was actually dropped.
func (s *Store) Invalidate(u dataset.UserID) bool {
	p := s.part(u)
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.entries[u]; !ok {
		return false
	}
	delete(p.entries, u)
	p.dropFromRingLocked(u)
	p.invalidated[u] = true
	p.invalidations.Add(1)
	return true
}

// InvalidateAll drops every materialized view — the one thing a rating
// ingest does to the store: a rating shifts the fallback means and can
// reach any user's neighborhood, and no view is re-read often enough
// between ratings to be worth proving untouched. Subsequent Acquires
// rebuild, counted as rebuilds. Returns the number of entries dropped.
// In-flight builds are unlinked with the rest, so whatever they finish
// computing is returned to their callers but never served again.
func (s *Store) InvalidateAll() int {
	n := 0
	for _, p := range s.parts {
		p.mu.Lock()
		dropped := len(p.entries)
		for u := range p.entries {
			delete(p.entries, u)
			p.invalidated[u] = true
		}
		p.ring = p.ring[:0]
		p.hand = 0
		p.mu.Unlock()
		p.invalidations.Add(uint64(dropped))
		n += dropped
	}
	return n
}

// UserView is one user's view in export form: only the dense score
// vector — the sorted side is a deterministic function of it and is
// re-derived on restore.
type UserView struct {
	User   dataset.UserID
	Scores []float64
}

// ExportViews snapshots every materialized view, sorted by user for
// deterministic output. Score slices are shared with the live views
// (views are immutable); callers must not mutate them.
func (s *Store) ExportViews() []UserView {
	var out []UserView
	for _, p := range s.parts {
		p.mu.Lock()
		for u, e := range p.entries {
			// Only settled views export: an entry mid-build has a nil
			// view and will be rebuilt on next start anyway.
			if v := e.view.Load(); v != nil {
				out = append(out, UserView{User: u, Scores: v.Scores})
			}
		}
		p.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// RestoreViews installs previously exported views, returning how many
// were installed. Each restored entry's build-once is consumed, so the
// next Acquire is a hit, not a build — restores count as WarmLoads,
// never ViewBuilds, which is how tests and operators verify a warm
// restart skipped the rebuild. Views with a score length that does not
// match the pool are skipped (a snapshot/config mismatch the caller's
// fingerprint should have caught), as are users already resident and
// users beyond a part's capacity budget.
func (s *Store) RestoreViews(views []UserView) int {
	restored := 0
	for _, uv := range views {
		if len(uv.Scores) != len(s.pool) {
			continue
		}
		p := s.part(uv.User)
		p.mu.Lock()
		if _, ok := p.entries[uv.User]; ok || len(p.ring) >= p.maxUsers {
			p.mu.Unlock()
			continue
		}
		e := &userEntry{}
		e.ref.Store(true)
		e.view.Store(NewView(uv.Scores))
		p.entries[uv.User] = e
		p.ring = append(p.ring, uv.User)
		delete(p.invalidated, uv.User)
		p.mu.Unlock()
		p.warmLoads.Add(1)
		restored++
	}
	return restored
}

// MapCandidates maps a candidate slice onto the pool. The walk consumes
// items in order against the pool in order, so the mapping is monotone
// — exactly the shape core.ViewSet.LocalOf requires — and anything
// unmatched (items beyond the pool, out of popularity order, or
// duplicated) lands in the patch suffix items[Matched:], keeping the
// served problem correct for any candidate slice. Each call returns a
// mapping of its own.
func (s *Store) MapCandidates(items []dataset.ItemID) Mapping {
	localOf := make([]int32, len(s.pool))
	j := 0
	for p, it := range s.pool {
		if j < len(items) && it == items[j] {
			localOf[p] = int32(j)
			j++
		} else {
			localOf[p] = -1
		}
	}
	return Mapping{LocalOf: localOf, Matched: j}
}

// NotePatched counts n candidate items served through a patch set —
// called by the assembly that predicted them, once it has decided to
// serve the slice from views at all.
func (s *Store) NotePatched(n int) { s.patchItems.Add(uint64(n)) }

// Len reports the number of materialized views across all shards.
func (s *Store) Len() int {
	n := 0
	for _, p := range s.parts {
		p.mu.Lock()
		n += len(p.entries)
		p.mu.Unlock()
	}
	return n
}

// statsOf snapshots one part's counters.
func (p *storePart) statsOf() ShardStats {
	p.mu.Lock()
	size := len(p.entries)
	p.mu.Unlock()
	return ShardStats{
		ViewHits:      p.viewHits.Load(),
		ViewBuilds:    p.viewBuilds.Load(),
		Rebuilds:      p.rebuilds.Load(),
		Invalidations: p.invalidations.Load(),
		Evictions:     p.evictions.Load(),
		WarmLoads:     p.warmLoads.Load(),
		Size:          size,
		MaxUsers:      p.maxUsers,
	}
}

// StatsByShard snapshots each sub-store's per-user counters separately
// (the /stats per-shard breakdown); the entries sum exactly to the
// matching fields of Stats.
func (s *Store) StatsByShard() []ShardStats {
	out := make([]ShardStats, len(s.parts))
	for i, p := range s.parts {
		out[i] = p.statsOf()
	}
	return out
}

// Stats snapshots the store's counters: the per-user counters summed
// across shards plus the store-global patch counter. The counters are
// atomic and only eventually consistent with each other.
func (s *Store) Stats() Stats {
	return s.StatsFrom(s.StatsByShard())
}

// StatsFrom builds the aggregate Stats from an existing per-shard
// snapshot (as returned by StatsByShard) plus the store-global patch
// counter. Callers that need both the breakdown and the aggregate take
// one snapshot and derive both from it, so the two levels agree exactly
// and every part's lock is taken once.
func (s *Store) StatsFrom(parts []ShardStats) Stats {
	st := Stats{
		PatchItems: s.patchItems.Load(),
		PoolSize:   len(s.pool),
	}
	for _, ss := range parts {
		st.ViewHits += ss.ViewHits
		st.ViewBuilds += ss.ViewBuilds
		st.Rebuilds += ss.Rebuilds
		st.Invalidations += ss.Invalidations
		st.Evictions += ss.Evictions
		st.WarmLoads += ss.WarmLoads
		st.Size += ss.Size
	}
	return st
}
