package cf

import (
	"slices"

	"repro/internal/dataset"
)

// This file is the live-world side of the cf package: the hooks that
// keep every derived structure coherent after a rating is applied to
// the store. A restarted world holds no neighborhood: they fill on
// first use, from the ratings the snapshot and the journal restored.
//
// Coherence model: one new rating by user u changes u's vector — and
// therefore sim(v, u) for exactly the users v that share an item with
// u after the rating. Every other similarity is bit-for-bit unchanged,
// so every cached neighborhood stays an exact prefix of its owner's
// ranking except in the one place u sits or lands. The scoped path
// (NoteIngestScoped) repairs exactly that place: one walk of u's rater
// lists names the users u co-rates with and gives each one's dot product
// with u, and every cached neighborhood among them has u re-ranked at
// the fresh similarity. This is incremental tabling: the stored answers
// are updated where the one changed input reaches them, not abolished
// and recomputed.
//
// NoteIngest is the historical drop-everything path. No serving
// configuration selects it any more; it stays as the reference the
// scoped path is differentially tested and benchmarked against. It
// recomputes the fallback means with the exact construction loops; the
// scoped path re-sums only the rated item and re-adds the per-item sums
// in the construction's order, so either swap is bit-identical to a
// cold rebuild.
//
// The epoch counters close the fill/ingest race: a lazy fill that
// started before an ingest — computed from pre-ingest state — fails
// the epoch check at install time and is never cached, so an in-flight
// scan cannot install what the ingest did not repair. Callers serialize
// NoteIngest/NoteIngestScoped invocations (the World's ingest lock);
// reads need no coordination.

// NoteIngestScoped makes the predictor coherent with a rating just
// applied for user u on item it, repairing the derived state the rating
// reaches in place:
//
//   - the fallback means are swapped for a successor in which the rated
//     item alone is re-summed (they shift on every ingest), and the
//     epoch is bumped so in-flight fills of pre-ingest state never
//     install;
//   - u's own neighborhood and norm are dropped (all of u's
//     similarities changed);
//   - every other cached neighborhood whose owner v co-rates with u has
//     u re-ranked at the fresh sim(v, u) (see rerank); it is dropped
//     only when the re-ranking leaves an incomplete list shorter than k,
//     so the served top-k is no longer known;
//   - every other cached neighborhood is untouched: no similarity it was
//     built from has changed.
//
// The repairs run one after another on the calling goroutine, which
// already holds the world's ingest lock. The counters record how many
// cached neighborhoods were dropped and how many retained, repaired
// ones included.
//
// A fill that straddles the ingest still hands its pre-ingest
// neighborhood to its caller; whatever that caller builds on it (a
// sorted view) is the caller's to fence — the list store drops every
// view, mid-build ones included, once the rating is applied.
func (p *Predictor) NoteIngestScoped(u dataset.UserID, it dataset.ItemID) {
	// Order matters: swap means first, then bump epochs, then repair.
	// Any fill that read the old means started before the bump and is
	// fenced; fills starting after the bump see the new means — and
	// the rater's post-ingest norm, which the repairs below recompute.
	// An item outside the domain cannot have been rated (Apply refuses
	// it), so the means stand.
	if ix, ok := p.items.Pos(it); ok {
		p.means.Store(p.means.Load().withItem(ix, p.store.RatersAt(ix).Value))
	}
	p.bumpEpoch(u)
	size := p.CachedNeighborhoods()
	dropped := 0

	// The rater's own neighborhood always drops: every sim of u
	// changed.
	if p.dropNeighborhood(u) {
		dropped++
	}
	dropped += p.repairReach(u)

	p.counters.invalidate(dropped)
	p.counters.retain(size - dropped)
}

// repairReach re-ranks u in every cached neighborhood of a user who
// co-rates with u, returning how many it dropped. One walk of u's rater
// lists over the post-rating store gives the co-raters and every dot
// product with u; the similarity is then finished in the owner's
// argument order, so it is the float a cold fill of the owner computes.
//
// Called after bumpEpoch, the stripe pass cannot miss a neighborhood
// that needs repair: a fill installed before the bump is resident when
// its stripe is read, one begun before the bump cannot install, and one
// begun after it already holds the fresh similarity, so repairing it
// too changes nothing it serves.
func (p *Predictor) repairReach(u dataset.UserID) int {
	pooled := p.dots.Get().(*[]float64)
	dot := *pooled
	co := p.scanCoraters(u, dot)
	var reached []int
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		for v := range sh.neighbors {
			if vi, ok := p.users.Pos(v); ok && co.has(vi) {
				reached = append(reached, vi)
			}
		}
		sh.mu.RUnlock()
	}
	nu := p.norm(u)
	ids := p.store.Users()
	dropped := 0
	for _, vi := range reached {
		v := ids[vi]
		var s float64
		if d := dot[vi]; d != 0 {
			s = cosineFrom(d, p.normAt(v, vi), nu)
		}
		if p.repair(v, Neighbor{User: u, Sim: s}) {
			dropped++
		}
	}
	clear(dot)
	p.dots.Put(pooled)
	return dropped
}

// repair re-ranks e.User at similarity e.Sim in v's cached neighborhood,
// reporting whether it dropped the neighborhood instead. The repaired
// list is a new slice installed under the stripe lock: a reader still
// holding the old one never sees it change.
func (p *Predictor) repair(v dataset.UserID, e Neighbor) (dropped bool) {
	sh := p.stripe(v)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	nb, ok := sh.neighbors[v]
	if !ok {
		return false
	}
	next, changed := nb.rerank(e, p.keep)
	switch {
	case !changed:
		return false
	case len(next.ns) < p.k && !next.complete:
		delete(sh.neighbors, v)
		p.work.repairDrops.Add(1)
		return true
	}
	sh.neighbors[v] = next
	p.work.repaired.Add(1)
	return false
}

// rerank returns nb with e.User re-ranked at similarity e.Sim: taken out
// of the list, then put back at its canonical rank if e ranks ahead of
// the list's last entry — or at any rank in a complete list — and the
// result cut to keep entries. Every step keeps an exact prefix of the
// ranking an exact prefix: the other entries' similarities did not
// move, and an e that lands behind the last entry of an incomplete list
// may rank behind peers the list never held. It reports false, leaving
// nb as it is, when e neither was in the list nor enters it.
func (nb neighborhood) rerank(e Neighbor, keep int) (neighborhood, bool) {
	old := slices.IndexFunc(nb.ns, func(x Neighbor) bool { return x.User == e.User })
	// at is e's rank among the entries other than its old one.
	at, _ := slices.BinarySearchFunc(nb.ns, e, compareNeighbors)
	if old >= 0 && old < at {
		at--
	}
	rest := len(nb.ns)
	if old >= 0 {
		rest--
	}
	enters := e.Sim > 0 && (nb.complete || at < rest)
	if old < 0 && !enters {
		return nb, false
	}
	ns := make([]Neighbor, 0, rest+1)
	for i, x := range nb.ns {
		if i == old {
			continue
		}
		if enters && len(ns) == at {
			ns = append(ns, e)
		}
		ns = append(ns, x)
	}
	if enters && len(ns) == at {
		ns = append(ns, e)
	}
	next := neighborhood{ns: ns, complete: nb.complete}
	if len(ns) > keep {
		next = neighborhood{ns: ns[:keep]}
	}
	return next, true
}

// dropNeighborhood unlinks v's cached neighborhood, reporting whether
// anything was cached.
func (p *Predictor) dropNeighborhood(v dataset.UserID) bool {
	sh := p.stripe(v)
	sh.mu.Lock()
	_, ok := sh.neighbors[v]
	delete(sh.neighbors, v)
	sh.mu.Unlock()
	return ok
}

// bumpEpoch fences every fill in flight and clears the rater u's cached
// vector norm (one new rating always changes it), both under one hold
// of u's stripe lock — the lock a norm install takes: a fill that
// begins after the bump will install what it computes, so no sim it
// takes may still find the pre-ingest norm cached.
func (p *Predictor) bumpEpoch(u dataset.UserID) {
	sh := p.stripe(u)
	sh.mu.Lock()
	p.epoch.Add(1)
	if ui, ok := p.users.Pos(u); ok {
		p.normBits[ui].Store(0)
	}
	sh.mu.Unlock()
}

// NoteIngest is the drop-everything counterpart of NoteIngestScoped:
// the fallback means are recomputed and swapped, every cached
// neighborhood is dropped, and u's cached norm is dropped. Kept as the
// reference the scoped path is tested against.
func (p *Predictor) NoteIngest(u dataset.UserID) {
	// Order matters: swap means first, then bump epochs, then clear.
	// Any fill that read the old means started before the bump and is
	// fenced; fills starting after the bump see the new means.
	p.means.Store(computePredictorMeans(p.store))
	p.bumpEpoch(u)
	cleared := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		cleared += len(sh.neighbors)
		if len(sh.neighbors) > 0 {
			sh.neighbors = make(map[dataset.UserID]neighborhood)
		}
		sh.mu.Unlock()
	}
	p.counters.invalidate(cleared)
}

// CachedNeighborhoods reports the number of cached neighborhoods.
func (p *Predictor) CachedNeighborhoods() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		n += len(sh.neighbors)
		sh.mu.RUnlock()
	}
	return n
}
