package cf

import (
	"sort"

	"repro/internal/dataset"
)

// This file is the live-world side of the cf package: the hooks that
// keep every derived structure coherent after a rating is applied to
// the delta overlay, and the export/restore pair the snapshot layer
// uses to warm-start the neighborhood caches.
//
// Coherence model: one new rating by user u changes u's vector — and
// therefore sim(v, u) for exactly the users v that share an item with
// u. Every other user's similarities, neighborhood, and predictions
// are bit-for-bit unchanged, which is what the scoped path
// (NoteIngestScoped) exploits: every cached neighborhood carries the
// bitset of its owner's co-raters, so the cached users that co-rate
// with u are the entries with u's bit set; the rated item's rater list
// names the users the ingest newly connects to u, and everyone else's
// cached state is provably fresh and stays warm. Each dependent gets a
// one-similarity recheck — if u neither sits in nor enters its cached
// top-k, the neighborhood (whose floats are untouched, not recomputed)
// is retained too.
//
// NoteIngest is the historical drop-everything path. No serving
// configuration selects it any more; it stays as the reference the
// scoped path is differentially tested and benchmarked against. It
// recomputes the fallback means with the exact construction loops; the
// scoped path re-sums only the rated item and re-adds the per-item sums
// in the construction's order, so either swap is bit-identical to a
// cold rebuild.
//
// The epoch counters close the fill/invalidate race: a lazy fill that
// started before an ingest — computed from pre-ingest state — fails
// the epoch check at install time and is never cached, so a cleared
// cache cannot be re-populated with stale entries by an in-flight
// scan. Callers serialize NoteIngest/NoteIngestScoped invocations (the
// World's ingest lock); reads need no coordination.

// NoteIngestScoped makes the predictor coherent with a rating just
// applied for user u on item it, dropping only the derived state the
// rating can actually reach:
//
//   - the fallback means are swapped for a successor in which the rated
//     item alone is re-summed (they shift on every ingest), and every
//     part epoch is bumped so in-flight fills of pre-ingest state never
//     install;
//   - u's own neighborhood and norm are dropped (all of u's
//     similarities changed);
//   - every dependent v — cached entries with u's co-rater bit set plus
//     the raters of it — is rechecked with one fresh sim(v, u): if u
//     already sat in v's cached top-k, or newly ranks into it under the
//     canonical (sim desc, user asc) order, v's neighborhood drops;
//     otherwise it is retained, its floats untouched;
//   - every other cached neighborhood is retained without even a
//     recheck: no similarity it was built from has changed.
//
// The rechecks run one after another on the calling goroutine, which
// already holds the world's ingest lock. The per-part counters record
// how many cached neighborhoods were dropped and how many retained.
//
// A fill that straddles the ingest still hands its pre-ingest
// neighborhood to its caller; whatever that caller builds on it (a
// sorted view) is the caller's to fence — the list store drops every
// view, mid-build ones included, once the rating is applied.
func (p *Predictor) NoteIngestScoped(u dataset.UserID, it dataset.ItemID) {
	// Order matters: swap means first, then bump epochs, then drop.
	// Any fill that read the old means started before the bump and is
	// fenced; fills starting after the bump see the new means — and
	// the rater's post-ingest norm, which every sim(v, u) from here on,
	// the rechecks' below included, recomputes fresh.
	// An item outside the domain cannot have been rated (Apply refuses
	// it), so the means stand.
	if ix, ok := p.items.of(it); ok {
		p.means.Store(p.means.Load().withItem(ix, p.store.ByItem(it)))
	}
	p.bumpEpochs(u)
	sizes := make([]int, len(p.parts))
	for pi, pp := range p.parts {
		sizes[pi] = pp.cachedNeighborhoods()
	}
	dropped := make([]int, len(p.parts))

	// The rater's own neighborhood always drops: every sim of u
	// changed.
	if p.dropNeighborhood(u) {
		dropped[p.sm.Of(int64(u))]++
	}

	// Candidate dependents: cached users that co-rated with u at their
	// fill time (u's bit in their co-rater set), plus the raters of it —
	// the users the ingest itself newly connects to u. Everyone else's
	// sims to u were zero before and after. Each candidate is rechecked
	// once; a verdict reads only that user's cached neighborhood and one
	// fresh sim(v, u), so no drop changes a later candidate's verdict.
	seen := map[dataset.UserID]struct{}{u: {}}
	recheck := func(v dataset.UserID) {
		if _, ok := seen[v]; ok {
			return
		}
		seen[v] = struct{}{}
		if p.recheckNeighborhood(v, u) && p.dropNeighborhood(v) {
			dropped[p.sm.Of(int64(v))]++
		}
	}
	for _, v := range p.dependentsOf(u) {
		recheck(v)
	}
	for _, r := range p.store.ByItem(it) {
		recheck(r.User)
	}

	for pi, pp := range p.parts {
		pp.counters.invalidate(dropped[pi])
		pp.counters.retain(sizes[pi] - dropped[pi])
	}
}

// recheckNeighborhood decides whether v's cached neighborhood survives
// an ingest by u: it is stale iff u already sits in the cached top-k
// (u's sim changed) or a fresh sim(v, u) ranks u into it under the
// canonical order the fill sort uses. The similarity is computed in
// the fill's argument order, so the verdict matches what a cold
// rebuild's scan would decide bit for bit. A user with nothing cached
// is never stale.
func (p *Predictor) recheckNeighborhood(v, u dataset.UserID) (stale bool) {
	pp := p.part(v)
	sh := &pp.shards[shardIndex(uint64(v))]
	sh.mu.RLock()
	cached, ok := sh.neighbors[v]
	sh.mu.RUnlock()
	if !ok {
		return false
	}
	ns := cached.ns
	for _, nb := range ns {
		if nb.User == u {
			return true
		}
	}
	s, _ := p.simCorated(p.measure, v, u)
	if s <= 0 {
		return false
	}
	if len(ns) < p.k {
		return true // room in the top-k; any positive sim enters
	}
	kth := ns[len(ns)-1]
	return s > kth.Sim || (s == kth.Sim && u < kth.User)
}

// dropNeighborhood unlinks v's cached neighborhood — its co-rater set
// goes with it — reporting whether anything was cached.
func (p *Predictor) dropNeighborhood(v dataset.UserID) bool {
	sh := &p.part(v).shards[shardIndex(uint64(v))]
	sh.mu.Lock()
	_, ok := sh.neighbors[v]
	delete(sh.neighbors, v)
	sh.mu.Unlock()
	return ok
}

// dependentsOf returns the users whose cached neighborhood was filled
// while they co-rated an item with w: a bit test over every resident
// entry. Called after bumpEpochs, it cannot miss a dependency: a fill
// installs its co-rater set with its neighborhood under the shard lock
// and checks the epoch under that same hold, so it either landed before
// this walk read its shard or is fenced.
func (p *Predictor) dependentsOf(w dataset.UserID) []dataset.UserID {
	wi, ok := p.users.of(w)
	if !ok {
		return nil
	}
	var out []dataset.UserID
	for _, pp := range p.parts {
		for i := range pp.shards {
			sh := &pp.shards[i]
			sh.mu.RLock()
			for v, nb := range sh.neighbors {
				if nb.coraters.has(wi) {
					out = append(out, v)
				}
			}
			sh.mu.RUnlock()
		}
	}
	return out
}

// bumpEpochs fences every fill in flight and forgets the rater u's
// cached vector norm (one new rating always changes it), both under
// one hold of the norm's lock: a fill that begins after the bump will
// install what it computes, so no sim it takes may still find the
// pre-ingest norm cached.
func (p *Predictor) bumpEpochs(u dataset.UserID) {
	sh := &p.part(u).shards[shardIndex(uint64(u))]
	sh.mu.Lock()
	for _, pp := range p.parts {
		pp.epoch.Add(1)
	}
	delete(sh.norms, u)
	sh.mu.Unlock()
}

// cachedNeighborhoods counts the part's resident neighborhoods.
func (pp *predictorPart) cachedNeighborhoods() int {
	n := 0
	for i := range pp.shards {
		sh := &pp.shards[i]
		sh.mu.RLock()
		n += len(sh.neighbors)
		sh.mu.RUnlock()
	}
	return n
}

// NoteIngest is the drop-everything counterpart of NoteIngestScoped:
// the fallback means are recomputed and swapped, every cached
// neighborhood is dropped (each with its co-rater set), and u's cached
// norm is dropped. Kept as the reference the scoped path is tested
// against.
func (p *Predictor) NoteIngest(u dataset.UserID) {
	// Order matters: swap means first, then bump epochs, then clear.
	// Any fill that read the old means started before the bump and is
	// fenced; fills starting after the bump see the new means.
	p.means.Store(computePredictorMeans(p.store))
	p.bumpEpochs(u)
	for _, pp := range p.parts {
		cleared := 0
		for i := range pp.shards {
			sh := &pp.shards[i]
			sh.mu.Lock()
			cleared += len(sh.neighbors)
			if len(sh.neighbors) > 0 {
				sh.neighbors = make(map[dataset.UserID]neighborhood)
			}
			sh.mu.Unlock()
		}
		pp.counters.invalidate(cleared)
	}
}

// NoteIngestScoped makes the item predictor coherent with a rating
// just applied by user u, dropping only the item neighborhoods the
// rating reaches: an adjusted-cosine sim(a, b) reads u's mean only
// when u co-rated a and b, so the stale neighborhoods are exactly the
// cached items u has rated (including the newly rated one — its rater
// list grew). Every other item's neighborhood is retained untouched.
func (p *ItemPredictor) NoteIngestScoped(u dataset.UserID) {
	p.means.Store(computeItemPredictorMeans(p.store))
	for _, pp := range p.parts {
		pp.epoch.Add(1)
	}
	sizes := make([]int, len(p.parts))
	for pi, pp := range p.parts {
		sizes[pi] = pp.cachedNeighborhoods()
	}
	dropped := make([]int, len(p.parts))
	var last dataset.ItemID
	first := true
	for _, r := range p.store.ByUser(u) {
		if !first && r.Item == last {
			continue // duplicate rating of the same item
		}
		first, last = false, r.Item
		pi := p.sm.Of(int64(r.Item))
		sh := &p.parts[pi].shards[shardIndex(uint64(r.Item))]
		sh.mu.Lock()
		if _, ok := sh.neighbors[r.Item]; ok {
			delete(sh.neighbors, r.Item)
			dropped[pi]++
		}
		sh.mu.Unlock()
	}
	for pi, pp := range p.parts {
		pp.counters.invalidate(dropped[pi])
		pp.counters.retain(sizes[pi] - dropped[pi])
	}
}

// cachedNeighborhoods counts the part's resident item neighborhoods.
func (pp *itemPredictorPart) cachedNeighborhoods() int {
	n := 0
	for i := range pp.shards {
		sh := &pp.shards[i]
		sh.mu.RLock()
		n += len(sh.neighbors)
		sh.mu.RUnlock()
	}
	return n
}

// NoteIngest is the item predictor's drop-everything path: the mean
// tables (user, item, global) are recomputed and swapped, and every
// cached item neighborhood is dropped.
func (p *ItemPredictor) NoteIngest() {
	p.means.Store(computeItemPredictorMeans(p.store))
	for _, pp := range p.parts {
		pp.epoch.Add(1)
	}
	for _, pp := range p.parts {
		cleared := 0
		for i := range pp.shards {
			sh := &pp.shards[i]
			sh.mu.Lock()
			cleared += len(sh.neighbors)
			if len(sh.neighbors) > 0 {
				sh.neighbors = make(map[dataset.ItemID][]itemNeighbor)
			}
			sh.mu.Unlock()
		}
		pp.counters.invalidate(cleared)
	}
}

// UserNeighbors is one user's cached neighborhood in export form — the
// unit the snapshot layer persists so a warm restart skips the
// neighborhood fills.
type UserNeighbors struct {
	User      dataset.UserID
	Neighbors []Neighbor
}

// ExportNeighborhoods snapshots every cached neighborhood, sorted by
// user for deterministic output. The neighbor slices are copies; the
// caller owns them.
func (p *Predictor) ExportNeighborhoods() []UserNeighbors {
	var out []UserNeighbors
	for _, pp := range p.parts {
		for i := range pp.shards {
			sh := &pp.shards[i]
			sh.mu.RLock()
			for u, nb := range sh.neighbors {
				out = append(out, UserNeighbors{User: u, Neighbors: append([]Neighbor(nil), nb.ns...)})
			}
			sh.mu.RUnlock()
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].User < out[j].User })
	return out
}

// RestoreNeighborhoods seeds the cache with previously exported
// neighborhoods, returning how many were installed. Entries for users
// already cached are skipped (the resident entry is canonical). The
// caller guarantees the snapshot matches the store — the persistence
// layer's config fingerprint gates that, and it restores only when no
// journaled rating was replayed on top. Snapshots carry no co-rater
// sets, so each one is recomputed here with the fill's walk over the
// store the neighborhood was built from; a restored entry is then as
// dependency-tracked as a filled one. Call during setup, before ingest
// traffic: an install here is not epoch-fenced.
func (p *Predictor) RestoreNeighborhoods(ns []UserNeighbors) int {
	restored := 0
	for _, un := range ns {
		nb := neighborhood{
			ns:       append([]Neighbor(nil), un.Neighbors...),
			coraters: p.scanCoraters(un.User, nil),
		}
		sh := &p.part(un.User).shards[shardIndex(uint64(un.User))]
		sh.mu.Lock()
		if _, ok := sh.neighbors[un.User]; !ok {
			sh.neighbors[un.User] = nb
			restored++
		}
		sh.mu.Unlock()
	}
	return restored
}

// CachedNeighborhoods reports the number of cached neighborhoods
// (across all shard parts) — the warm-start observability hook.
func (p *Predictor) CachedNeighborhoods() int {
	n := 0
	for _, s := range p.StatsByShard() {
		n += s.Size
	}
	return n
}
