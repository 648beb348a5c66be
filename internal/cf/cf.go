// Package cf implements the collaborative filtering predictors the
// reproduction uses as absolute-preference sources (§4): user-based
// (the paper's choice — cosine user similarity, k-NN weighted
// average), item-based (adjusted cosine), and time-weighted (Ding &
// Li's related-work baseline). All three implement the Source
// interface consumed by the assembly layer, and their lazy caches are
// sharded so concurrent recommendation traffic does not serialize on a
// single lock.
package cf

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/shard"
)

// DefaultNeighbors is the neighborhood size used when none is given.
const DefaultNeighbors = 50

// numShards is the lock-shard count for the lazy per-user caches. 64
// keeps contention negligible for any realistic GOMAXPROCS while the
// per-shard overhead (two maps and an RWMutex) stays trivial.
const numShards = 64

// Neighbor pairs a user with its cosine similarity to the query user.
type Neighbor struct {
	User dataset.UserID
	Sim  float64
}

// userShard is one lock shard of the predictor's lazy caches.
type userShard struct {
	mu        sync.RWMutex
	neighbors map[dataset.UserID]neighborhood
	norms     map[dataset.UserID]float64
}

// neighborhood is one cached fill: the top-k and the fill's dependency
// record, installed and dropped together under the shard lock.
type neighborhood struct {
	ns []Neighbor
	// coraters marks, over the dense user index, every user that shared
	// an item with the owner at fill time. An ingest by w can change
	// sim(owner, w) only if w's bit is set here (or the ingest itself
	// creates the first shared item, which the rated item's rater list
	// covers), so the cached top-k depends on exactly these users.
	coraters userBits
}

// shardIndex maps a user or item ID onto a lock shard. IDs are dense
// small integers; a multiplicative mix keeps adjacent IDs on
// different shards even so.
func shardIndex(id uint64) int {
	return int(id * 0x9E3779B97F4A7C15 >> 58)
}

// Predictor computes user-user similarities and k-NN rating
// predictions over a frozen dataset.Store. Neighborhoods and vector
// norms are computed lazily per user and cached in lock-sharded maps,
// so concurrent readers of distinct users never contend and readers of
// the same user share an RLock.
//
// The lazy caches are partitioned by a shard.Map into per-shard
// instances (predictorPart), each with its own lock stripes and
// counters — a user's cached neighborhood lives on the shard the
// world's map routes it to, so a sharded world's cache traffic (and a
// future per-shard invalidation) never crosses shard boundaries.
type Predictor struct {
	store   *dataset.Store
	k       int
	measure Similarity

	// sm routes users onto parts; Single unless SetSharding widened it.
	sm    shard.Map
	parts []*predictorPart
	// users is the dense user index the fill kernel accumulates over and
	// the co-rater bitsets are laid out on; dots pools the kernel's
	// dot-product vectors (*[]float64, len(users), all zero at rest).
	users denseIndex[dataset.UserID]
	dots  sync.Pool
	work  scanWork
	// items is the dense item index the batch kernel's slot table and the
	// fallback means are laid out on; scratch pools the kernel's working
	// sets (*batchScratch, all zero at rest).
	items   denseIndex[dataset.ItemID]
	scratch sync.Pool
	// means holds the fallback means (per-item and global) as one
	// immutable snapshot: an ingest builds a successor and swaps it, so
	// hot paths read a coherent pair with a single atomic load.
	means atomic.Pointer[predictorMeans]
}

// predictorMeans is one immutable snapshot of the fallback means, dense
// over the item index (position i is Items()[i]).
type predictorMeans struct {
	// sums[i] and counts[i] are the sum and the number of item i's
	// ratings; the item mean — the first fallback — is their quotient.
	sums   []float64
	counts []int
	// globalMean is the dataset mean rating, the last-resort fallback
	// prediction when an item has no neighbor coverage.
	globalMean float64
}

// computePredictorMeans derives the fallback means from the store. The
// accumulation order (items ascending, each item's ratings in list
// order) is the bit-identicality contract: a recomputation over the
// delta-overlaid store runs this exact loop, so a live world and a cold
// rebuild agree to the last bit.
func computePredictorMeans(store *dataset.Store) *predictorMeans {
	items := store.Items()
	m := &predictorMeans{sums: make([]float64, len(items)), counts: make([]int, len(items))}
	for i, it := range items {
		m.sums[i], m.counts[i] = sumRatings(store.ByItem(it))
	}
	m.total()
	return m
}

// sumRatings adds one item's ratings in list order.
func sumRatings(rs []dataset.Rating) (float64, int) {
	var s float64
	for _, r := range rs {
		s += r.Value
	}
	return s, len(rs)
}

// total derives the global mean from the per-item sums, added in
// ascending item order.
func (m *predictorMeans) total() {
	var sum float64
	n := 0
	for i, s := range m.sums {
		sum += s
		n += m.counts[i]
	}
	if n > 0 {
		m.globalMean = sum / float64(n)
	} else {
		m.globalMean = 3 // middle of the 1..5 scale
	}
}

// withItem returns the successor snapshot after the item at dense
// position ix gained a rating: only that item's list is re-summed (the
// inner loop of computePredictorMeans), then the per-item sums are
// re-added in ascending item order — every addition the full
// recomputation's outer loop makes, in its order, so the two agree to
// the last bit.
func (m *predictorMeans) withItem(ix int, rs []dataset.Rating) *predictorMeans {
	next := &predictorMeans{sums: slices.Clone(m.sums), counts: slices.Clone(m.counts)}
	next.sums[ix], next.counts[ix] = sumRatings(rs)
	next.total()
	return next
}

// fallback is the prediction for an item no neighbor covers: its mean,
// or the global mean when nobody rated it or it lies outside the store.
func (m *predictorMeans) fallback(ix int, ok bool) float64 {
	if ok && m.counts[ix] > 0 {
		return m.sums[ix] / float64(m.counts[ix])
	}
	return m.globalMean
}

// predictorPart is one shard's instance of the lazy neighborhood
// cache: its own lock stripes and its own counters.
type predictorPart struct {
	shards [numShards]userShard
	// counters track neighborhood-cache hits and misses (evictions are
	// impossible: the lazy caches only grow). See Stats.
	counters cacheCounters
	// epoch fences lazy fills against invalidation: a fill records the
	// epoch before its scan and installs only if it is unchanged, so a
	// computation that straddles a NoteIngest can never re-populate a
	// just-cleared cache with pre-ingest state.
	epoch atomic.Uint64
}

func newPredictorPart() *predictorPart {
	p := &predictorPart{}
	for i := range p.shards {
		p.shards[i].neighbors = make(map[dataset.UserID]neighborhood)
		p.shards[i].norms = make(map[dataset.UserID]float64)
	}
	return p
}

// NewPredictor builds a predictor over store with neighborhoods of
// size kNeighbors (DefaultNeighbors if <= 0) using cosine similarity —
// the paper's §4 configuration. The store must be frozen.
func NewPredictor(store *dataset.Store, kNeighbors int) (*Predictor, error) {
	return NewPredictorSim(store, kNeighbors, CosineSim)
}

// NewPredictorSim builds a predictor with an explicit similarity
// measure for the neighborhood selection.
func NewPredictorSim(store *dataset.Store, kNeighbors int, measure Similarity) (*Predictor, error) {
	if store == nil || !store.Frozen() {
		return nil, fmt.Errorf("cf: NewPredictor requires a frozen store")
	}
	if kNeighbors <= 0 {
		kNeighbors = DefaultNeighbors
	}
	p := &Predictor{
		store:   store,
		k:       kNeighbors,
		measure: measure,
		sm:      shard.Single,
		parts:   []*predictorPart{newPredictorPart()},
		users:   newDenseIndex(store.Users()),
		items:   newDenseIndex(store.Items()),
	}
	nUsers, nItems := len(p.users.ids), len(p.items.ids)
	p.dots.New = func() any {
		v := make([]float64, nUsers)
		return &v
	}
	p.scratch.New = func() any { return &batchScratch{slot: make([]int32, nItems)} }
	p.means.Store(computePredictorMeans(store))
	return p, nil
}

// Cosine returns the cosine similarity of the rating vectors of u and
// v: Σ r_u(i)·r_v(i) over common items, divided by the L2 norms of the
// full vectors (the paper's vec(u) formulation).
func (p *Predictor) Cosine(u, v dataset.UserID) float64 {
	s, _ := p.cosineCorated(u, v)
	return s
}

// SetSharding repartitions the lazy caches into one instance per
// shard of m (nil reverts to a single instance). Call during setup,
// before the predictor serves traffic — it replaces the cache parts,
// dropping anything already cached (cached values are pure functions
// of the frozen store, so a drop only costs recomputation).
func (p *Predictor) SetSharding(m shard.Map) {
	p.sm = shard.Normalize(m)
	p.parts = make([]*predictorPart, p.sm.N())
	for i := range p.parts {
		p.parts[i] = newPredictorPart()
	}
}

// Sharding returns the shard map routing users onto cache parts.
func (p *Predictor) Sharding() shard.Map { return p.sm }

// part returns the cache instance of u's shard.
func (p *Predictor) part(u dataset.UserID) *predictorPart {
	return p.parts[p.sm.Of(int64(u))]
}

func (p *Predictor) norm(u dataset.UserID) float64 {
	pp := p.part(u)
	sh := &pp.shards[shardIndex(uint64(u))]
	sh.mu.RLock()
	n, ok := sh.norms[u]
	sh.mu.RUnlock()
	if ok {
		return n
	}
	epoch := pp.epoch.Load()
	var ss float64
	for _, r := range p.store.ByUser(u) {
		ss += r.Value * r.Value
	}
	n = math.Sqrt(ss)
	sh.mu.Lock()
	if pp.epoch.Load() == epoch {
		sh.norms[u] = n
	}
	sh.mu.Unlock()
	return n
}

// Neighbors returns u's k most similar users (excluding u and
// zero-similarity users), sorted by descending similarity. The result
// is cached; callers must not modify it. Concurrent first calls for
// the same user may compute the neighborhood twice; both computations
// yield the identical slice and one wins the cache, so the race is
// benign and never holds a lock during the walk over u's rater lists.
func (p *Predictor) Neighbors(u dataset.UserID) []Neighbor {
	pp := p.part(u)
	sh := &pp.shards[shardIndex(uint64(u))]
	sh.mu.RLock()
	nb, ok := sh.neighbors[u]
	sh.mu.RUnlock()
	if ok {
		pp.counters.hit()
		return nb.ns
	}
	pp.counters.miss()

	epoch := pp.epoch.Load()
	ns, coraters := p.fill(u)
	return p.finishFill(u, ns, coraters, epoch)
}

// finishFill ends a fill of u's neighborhood begun at epoch: it
// installs ns, together with its co-rater set, unless an ingest or a
// concurrent fill got there first, and returns the neighborhood to
// serve. The epoch check and the install share one hold of the shard
// lock, and an ingest bumps the epoch before it reads any shard for
// dependents: a fill it does not find there is fenced, and one it finds
// carries its dependency record.
func (p *Predictor) finishFill(u dataset.UserID, ns []Neighbor, coraters userBits, epoch uint64) []Neighbor {
	pp := p.part(u)
	sh := &pp.shards[shardIndex(uint64(u))]
	sh.mu.Lock()
	if cached, ok := sh.neighbors[u]; ok {
		ns = cached.ns // a concurrent computation won; keep one canonical slice
	} else if pp.epoch.Load() == epoch {
		sh.neighbors[u] = neighborhood{ns: ns, coraters: coraters}
	}
	sh.mu.Unlock()
	return ns
}

// Predict returns the predicted rating of u for item it on the 1..5
// scale. If u already rated it, the actual rating is returned. The
// neighbor-weighted average falls back to the item mean and then the
// global mean when coverage is missing, so predictions are total.
func (p *Predictor) Predict(u dataset.UserID, it dataset.ItemID) float64 {
	if v, ok := p.store.Value(u, it); ok {
		return v
	}
	var num, den float64
	for _, nb := range p.Neighbors(u) {
		if v, ok := p.store.Value(nb.User, it); ok {
			num += nb.Sim * v
			den += nb.Sim
		}
	}
	if den > 0 {
		return clampRating(num / den)
	}
	return p.means.Load().fallback(p.items.of(it))
}

// PredictBatch returns predictions of u for each item in items. The
// user's neighborhood is resolved exactly once; each neighbor's
// item-sorted rating list is then streamed a single time, accumulating
// weighted sums per candidate slot — O(k·|neighbor ratings| + m)
// instead of the per-item O(m·k·log) of repeated Predict calls.
// Accumulation order per item matches Predict's neighbor order, so the
// results are bit-identical to the sequential path.
func (p *Predictor) PredictBatch(u dataset.UserID, items []dataset.ItemID) []float64 {
	out := make([]float64, len(items))
	p.PredictBatchInto(u, items, out)
	return out
}

// PredictBatchInto is PredictBatch writing into dst (len(items)).
func (p *Predictor) PredictBatchInto(u dataset.UserID, items []dataset.ItemID, dst []float64) {
	p.batchInto(u, items, dst, func(nb Neighbor, _ dataset.Rating) float64 { return nb.Sim })
}

// batchScratch is one pooled working set of the batch kernel. Every
// entry is zero while the set rests in the pool: the kernel zeroes what
// it touched before it returns the set, because a mark or a partial sum
// left behind would leak one user's evidence into the next view.
type batchScratch struct {
	// slot[ix] is one plus the position in items of the first candidate
	// with dense item index ix, 0 for an item the batch does not ask for.
	slot []int32
	// num, den, own and ownSet are indexed by that position and grown to
	// the largest batch seen.
	num, den, own []float64
	ownSet        []bool
}

// grow sizes the per-candidate vectors for a batch of n.
func (sc *batchScratch) grow(n int) {
	if n > len(sc.num) {
		sc.num, sc.den, sc.own = make([]float64, n), make([]float64, n), make([]float64, n)
		sc.ownSet = make([]bool, n)
	}
}

// batchInto is the shared slot-accumulation core of the user-based and
// time-weighted batch paths: weight supplies each rating's
// contribution factor (similarity alone, or similarity × age decay).
// A candidate's accumulation slot is found through the slot table over
// the dense item index — marked for the first occurrence of each item,
// so duplicate candidates share a slot — not by hashing the item. It
// preserves Predict's per-item accumulation order (neighbors in
// Neighbors order, each row in list order), first-duplicate-wins rating
// semantics, own-rating override, and fallback ladder — the invariants
// that keep batch results bit-identical to sequential.
func (p *Predictor) batchInto(u dataset.UserID, items []dataset.ItemID, dst []float64, weight func(Neighbor, dataset.Rating) float64) {
	sc := p.scratch.Get().(*batchScratch)
	p.batchWith(sc, u, items, dst, weight)
	p.scratch.Put(sc)
}

// batchWith runs the kernel on the working set sc, which must be all
// zero and is all zero again on return.
func (p *Predictor) batchWith(sc *batchScratch, u dataset.UserID, items []dataset.ItemID, dst []float64, weight func(Neighbor, dataset.Rating) float64) {
	sc.grow(len(items))
	slot, num, den, own, ownSet := sc.slot, sc.num, sc.den, sc.own, sc.ownSet
	for i, it := range items {
		if ix, ok := p.items.of(it); ok && slot[ix] == 0 {
			slot[ix] = int32(i) + 1
		}
	}
	for _, nb := range p.Neighbors(u) {
		rs := p.store.ByUser(nb.User)
		for ri := range rs {
			r := &rs[ri]
			if ri > 0 && rs[ri-1].Item == r.Item {
				continue // duplicate rating; the sequential lookup sees only the first
			}
			if ix, ok := p.items.of(r.Item); ok && slot[ix] != 0 {
				s := slot[ix] - 1
				w := weight(nb, *r)
				num[s] += w * r.Value
				den[s] += w
			}
		}
	}
	// Own ratings override neighbor evidence, as in Predict.
	for _, r := range p.store.ByUser(u) {
		if ix, ok := p.items.of(r.Item); ok && slot[ix] != 0 {
			if s := slot[ix] - 1; !ownSet[s] {
				own[s], ownSet[s] = r.Value, true
			}
		}
	}
	means := p.means.Load()
	for i, it := range items {
		ix, ok := p.items.of(it)
		if !ok {
			dst[i] = means.globalMean // outside the store: nobody rated it
			continue
		}
		s := slot[ix] - 1
		switch {
		case ownSet[s]:
			dst[i] = own[s]
		case den[s] > 0:
			dst[i] = clampRating(num[s] / den[s])
		default:
			dst[i] = means.fallback(ix, true)
		}
	}
	for _, it := range items {
		if ix, ok := p.items.of(it); ok {
			slot[ix] = 0
		}
	}
	n := len(items)
	clear(num[:n])
	clear(den[:n])
	clear(own[:n])
	clear(ownSet[:n])
}

// PredictAll returns predictions of u for each item in items. It is
// the historical name of PredictBatch and delegates to it.
func (p *Predictor) PredictAll(u dataset.UserID, items []dataset.ItemID) []float64 {
	return p.PredictBatch(u, items)
}

// GlobalMean returns the dataset mean rating.
func (p *Predictor) GlobalMean() float64 { return p.means.Load().globalMean }

// Stats snapshots the lazy neighborhood cache's counters, aggregated
// across all shard parts: a hit is a Neighbors call answered from a
// cache, a miss one that had to walk the user's rater lists. Size is the
// number of cached neighborhoods (the cache only grows, bounded by the
// user count).
func (p *Predictor) Stats() CacheStats {
	return sumStats(p.StatsByShard())
}

// StatsByShard snapshots each shard part's counters separately (the
// /stats per-shard breakdown); the entries sum exactly to Stats.
func (p *Predictor) StatsByShard() []CacheStats {
	out := make([]CacheStats, len(p.parts))
	for pi, pp := range p.parts {
		n := 0
		for i := range pp.shards {
			sh := &pp.shards[i]
			sh.mu.RLock()
			n += len(sh.neighbors)
			sh.mu.RUnlock()
		}
		out[pi] = pp.counters.snapshot(n)
	}
	return out
}

// PairwiseSimilaritySum returns the sum of pairwise cosine
// similarities within the given user set — the objective the paper
// maximizes (similar groups) or minimizes (dissimilar groups) during
// group formation (§4.1.3).
func (p *Predictor) PairwiseSimilaritySum(users []dataset.UserID) float64 {
	var s float64
	for i := range users {
		for j := i + 1; j < len(users); j++ {
			s += p.Cosine(users[i], users[j])
		}
	}
	return s
}

func clampRating(x float64) float64 {
	if x < 1 {
		return 1
	}
	if x > 5 {
		return 5
	}
	return x
}
