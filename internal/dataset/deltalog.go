package dataset

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/shard"
)

// DeltaLog is the live-write overlay of a frozen Store: an append-only
// rating log partitioned by the store's shard map. Each shard owns the
// user-major side of its users' deltas under its own RWMutex; one
// store-wide lock owns the item-major side (per-item delta lists, the
// global append-order record, and the overlaid popularity ranking),
// because item state is a catalog property, not a user-range one.
//
// Lock order is delta-shard before itemMu, always: Apply holds its
// user's shard lock across the item-side append so the two sides can
// never disagree about which ratings exist, and ReFreeze acquires
// every shard lock (ascending) and then itemMu, folding one consistent
// cut of the log.
type DeltaLog struct {
	sm     shard.Map
	shards []*deltaShard

	// count is the pending-delta counter, incremented after an Apply's
	// writes are visible and zeroed under all locks by ReFreeze. Read
	// paths use it as the lock-elision fast path: zero means the frozen
	// state is the whole truth.
	count atomic.Int64

	applied atomic.Int64 // lifetime Apply count
	folds   atomic.Int64 // lifetime ReFreeze folds that moved data
	folded  atomic.Int64 // lifetime ratings folded into the base

	// itemMu guards everything below.
	itemMu sync.RWMutex
	// recs is the global append-order log — the exact sequence a cold
	// rebuild would Add after the base, which is what makes folded
	// float accumulations (sumVal) bit-identical to that rebuild.
	recs   []Rating
	byItem map[ItemID][]Rating
	sumVal float64
	// popRanked is the overlaid popularity ranking, re-derived at each
	// Apply into a fresh slice (never mutated in place, so returning it
	// to lock-free readers is safe); nil when no deltas are pending.
	popRanked []ItemID
}

// deltaShard is one shard's user-major delta state.
type deltaShard struct {
	mu     sync.RWMutex
	byUser map[UserID][]Rating
}

func newDeltaLog(sm shard.Map) *DeltaLog {
	dl := &DeltaLog{sm: sm, shards: make([]*deltaShard, sm.N()), byItem: make(map[ItemID][]Rating)}
	for i := range dl.shards {
		dl.shards[i] = &deltaShard{byUser: make(map[UserID][]Rating)}
	}
	return dl
}

// userShard returns the delta shard holding u's pending ratings.
func (dl *DeltaLog) userShard(u UserID) *deltaShard {
	return dl.shards[dl.sm.Of(int64(u))]
}

// DeltaStats counts the overlay's traffic.
type DeltaStats struct {
	// Pending is the number of ratings applied but not yet folded.
	Pending int `json:"pending"`
	// Applied is the lifetime number of Apply calls that succeeded.
	Applied int64 `json:"applied"`
	// Folds is the number of ReFreeze calls that folded at least one
	// rating.
	Folds int64 `json:"folds"`
	// Folded is the lifetime number of ratings folded into the base.
	Folded int64 `json:"folded"`
}

// DeltaStats snapshots the overlay counters. The store must be frozen.
func (s *Store) DeltaStats() DeltaStats {
	s.mustFrozen("DeltaStats")
	dl := s.deltas
	return DeltaStats{
		Pending: int(dl.count.Load()),
		Applied: dl.applied.Load(),
		Folds:   dl.folds.Load(),
		Folded:  dl.folded.Load(),
	}
}

// PendingDeltas returns the number of applied-but-unfolded ratings.
func (s *Store) PendingDeltas() int {
	s.mustFrozen("PendingDeltas")
	return int(s.deltas.count.Load())
}

// Apply appends one rating to the live overlay. The store must be
// frozen; the user and item must already exist (the overlay cannot
// grow either domain — every derived structure is sized to them), and
// the value must be on the 1..5 scale. Violations return errors
// matchable against ErrNotFrozen, ErrUnknownUser, ErrUnknownItem, and
// ErrBadValue. Apply is safe for concurrent use with itself and with
// every read path; the rating is visible to all reads once Apply
// returns.
func (s *Store) Apply(r Rating) error {
	if !s.frozen {
		return fmt.Errorf("dataset: Apply: %w", ErrNotFrozen)
	}
	if r.Value < 1 || r.Value > 5 {
		return fmt.Errorf("dataset: %w: %.2f for user %d item %d", ErrBadValue, r.Value, r.User, r.Item)
	}
	dl := s.deltas
	st := s.state.Load()
	if _, ok := st.part(r.User).byUser[r.User]; !ok {
		return fmt.Errorf("dataset: %w: %d", ErrUnknownUser, r.User)
	}
	if _, ok := st.byItem[r.Item]; !ok {
		return fmt.Errorf("dataset: %w: %d", ErrUnknownItem, r.Item)
	}

	d := dl.userShard(r.User)
	d.mu.Lock()
	dl.itemMu.Lock()
	d.byUser[r.User] = append(d.byUser[r.User], r)
	dl.recs = append(dl.recs, r)
	dl.byItem[r.Item] = append(dl.byItem[r.Item], r)
	dl.sumVal += r.Value
	// One item's count rose by one: move it up the current ranking.
	// Reload the state inside the locks: ReFreeze cannot run
	// concurrently here, so this is the state the pending deltas
	// overlay.
	st = s.state.Load()
	ranked := dl.popRanked
	if ranked == nil {
		ranked = st.popRanked
	}
	dl.popRanked = promoteByPopularity(ranked, r.Item, func(it ItemID) int {
		return len(st.byItem[it]) + len(dl.byItem[it])
	})
	dl.itemMu.Unlock()
	d.mu.Unlock()
	dl.count.Add(1)
	dl.applied.Add(1)
	return nil
}

// promoteByPopularity returns the popularity ranking after it alone
// gained one rating: a copy of ranked (the old slice may be in a
// lock-free reader's hands) with it moved up past every entry that now
// has a lower count, or an equal count and a higher ID. ranked must be
// in rankByPopularity's order for the counts before the gain, and count
// must report the counts after it; the result is then exactly what
// rankByPopularity would produce, without re-sorting the catalog.
func promoteByPopularity(ranked []ItemID, it ItemID, count func(ItemID) int) []ItemID {
	out := make([]ItemID, len(ranked))
	pos := slices.Index(ranked, it)
	c := count(it)
	to := pos
	for to > 0 {
		prev := ranked[to-1]
		if pc := count(prev); pc > c || (pc == c && prev < it) {
			break
		}
		to--
	}
	copy(out, ranked[:to])
	out[to] = it
	copy(out[to+1:], ranked[to:pos])
	copy(out[pos+1:], ranked[pos+1:])
	return out
}

// ReFreeze folds every pending delta into a successor frozen state and
// swaps it in, returning how many ratings were folded. The overlay is
// empty afterwards, so reads go back to the lock-free fast path. The
// fold is stop-the-world for writers (it holds every delta lock) but
// readers only block for the swap's critical section; queries answer
// identically before and after, because folding replays exactly the
// merge the overlay computed on the fly.
func (s *Store) ReFreeze() int {
	s.mustFrozen("ReFreeze")
	dl := s.deltas
	if dl.count.Load() == 0 {
		// Nothing pending. An Apply racing this check simply lands in
		// the next fold.
		return 0
	}
	for _, d := range dl.shards {
		d.mu.Lock()
	}
	dl.itemMu.Lock()
	n := len(dl.recs)
	if n > 0 {
		s.state.Store(foldState(s.state.Load(), dl))
		for _, d := range dl.shards {
			d.byUser = make(map[UserID][]Rating)
		}
		dl.recs = nil
		dl.byItem = make(map[ItemID][]Rating)
		dl.sumVal = 0
		dl.popRanked = nil
		dl.count.Store(0)
		dl.folds.Add(1)
		dl.folded.Add(int64(n))
	}
	dl.itemMu.Unlock()
	for i := len(dl.shards) - 1; i >= 0; i-- {
		dl.shards[i].mu.Unlock()
	}
	return n
}

// foldState builds the successor state: base plus every pending delta,
// merged exactly as the overlay merges on read. The caller holds every
// delta lock.
func foldState(st *storeState, dl *DeltaLog) *storeState {
	ns := &storeState{
		users:     st.users,
		items:     st.items,
		nRatings:  st.nRatings,
		sumVal:    st.sumVal,
		sm:        st.sm,
		maskWords: st.maskWords,
	}
	// Accumulate counts and the value sum in global append order — the
	// same order a cold rebuild's Add sequence uses.
	for _, r := range dl.recs {
		ns.nRatings++
		ns.sumVal += r.Value
	}
	// Item-major: share untouched lists, merge the delta'd ones.
	ns.byItem = make(map[ItemID][]Rating, len(st.byItem))
	for it, rs := range st.byItem {
		ns.byItem[it] = rs
	}
	for it, drs := range dl.byItem {
		ns.byItem[it] = mergeByUser(st.byItem[it], drs)
	}
	ns.popRanked = rankByPopularity(ns.items, func(it ItemID) int { return len(ns.byItem[it]) })
	// User-major arenas: share untouched rows, merge delta'd ones, and
	// rebuild each shard's contiguous bitset backing.
	ns.parts = make([]storePart, len(st.parts))
	for si := range ns.parts {
		p, op, ds := &ns.parts[si], &st.parts[si], dl.shards[si]
		p.byUser = make(map[UserID][]Rating, len(op.byUser))
		for u, rs := range op.byUser {
			if drs := ds.byUser[u]; len(drs) > 0 {
				p.byUser[u] = mergeByItem(rs, drs)
			} else {
				p.byUser[u] = rs
			}
		}
		if ns.maskWords > 0 {
			words := ns.maskWords
			p.rated = make(map[UserID]Bitset, len(p.byUser))
			backing := make([]uint64, words*len(p.byUser))
			i := 0
			for u := range p.byUser {
				b := Bitset(backing[i*words : (i+1)*words])
				i++
				if ob, ok := op.rated[u]; ok {
					copy(b, ob)
				} else {
					for _, r := range p.byUser[u] {
						b.set(r.Item)
					}
				}
				for _, r := range ds.byUser[u] {
					b.set(r.Item)
				}
				p.rated[u] = b
			}
		}
	}
	return ns
}

// mergeByItem merges a base row (sorted by item, stable in ingest
// order) with a delta row (in append order): the result is exactly
// sort.SliceStable-by-Item over base++delta, i.e. what a cold rebuild
// of the full log would freeze. Base entries precede delta entries on
// equal items.
func mergeByItem(base, delta []Rating) []Rating {
	ds := make([]Rating, len(delta))
	copy(ds, delta)
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].Item < ds[j].Item })
	out := make([]Rating, 0, len(base)+len(ds))
	i, j := 0, 0
	for i < len(base) && j < len(ds) {
		if base[i].Item <= ds[j].Item {
			out = append(out, base[i])
			i++
		} else {
			out = append(out, ds[j])
			j++
		}
	}
	out = append(out, base[i:]...)
	out = append(out, ds[j:]...)
	return out
}

// mergeByUser is mergeByItem keyed on User, for the item-major lists.
func mergeByUser(base, delta []Rating) []Rating {
	ds := make([]Rating, len(delta))
	copy(ds, delta)
	sort.SliceStable(ds, func(i, j int) bool { return ds[i].User < ds[j].User })
	out := make([]Rating, 0, len(base)+len(ds))
	i, j := 0, 0
	for i < len(base) && j < len(ds) {
		if base[i].User <= ds[j].User {
			out = append(out, base[i])
			i++
		} else {
			out = append(out, ds[j])
			j++
		}
	}
	out = append(out, base[i:]...)
	out = append(out, ds[j:]...)
	return out
}
