// Package cf implements the collaborative filtering predictor the
// reproduction uses as its absolute-preference source (§4): user-based,
// cosine user similarity over the full rating vectors, k-NN weighted
// average — the paper's choice. Its lazy neighborhood cache is
// lock-striped so concurrent recommendation traffic does not serialize
// on a single lock. The predictor holds one cache, one fill epoch and
// one set of counters per process: the stripes are the lock domain, and
// the world's shard count does not enter here.
package cf

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// DefaultNeighbors is the neighborhood size used when none is given.
const DefaultNeighbors = 50

// marginDivisor sets the ranked margin a cached neighborhood keeps past
// its top-k: M = k / marginDivisor entries. A fifth is the smallest
// margin measured that keeps drops under 1 % of repairs on the bench
// workloads' rating stream (EXPERIMENTS.md, "Why a rating repairs
// neighborhoods").
const marginDivisor = 5

// numShards is the lock-stripe count for the lazy per-user caches. 64
// keeps contention negligible for any realistic GOMAXPROCS while the
// per-stripe overhead (a map and an RWMutex) stays trivial.
const numShards = 64

// Neighbor pairs a user with its cosine similarity to the query user.
type Neighbor struct {
	User dataset.UserID
	Sim  float64
}

// userShard is one lock stripe of the predictor's lazy caches.
type userShard struct {
	mu        sync.RWMutex
	neighbors map[dataset.UserID]neighborhood
}

// neighborhood is one cached fill: a prefix of the canonical ranking
// (similarity descending, user ascending) of the owner's positive-
// similarity peers over the current store. A fill keeps the leading
// k + M entries — the served top-k plus a ranked margin of M — or every
// positive peer when there are fewer, and then marks the list complete.
// A rating repairs the list in place (see NoteIngestScoped); the margin
// is what lets the one re-ranked peer fall behind the k-th without
// losing the exact prefix.
type neighborhood struct {
	ns       []Neighbor
	complete bool
}

// top returns the k leading entries: what Neighbors serves. The slice is
// capped at its length, so a caller's append cannot reach the margin.
func (nb neighborhood) top(k int) []Neighbor {
	n := min(k, len(nb.ns))
	return nb.ns[:n:n]
}

// shardIndex maps a user or item ID onto a lock stripe. IDs are dense
// small integers; a multiplicative mix keeps adjacent IDs on
// different stripes even so.
func shardIndex(id uint64) int {
	return int(id * 0x9E3779B97F4A7C15 >> 58)
}

// Predictor computes user-user similarities and k-NN rating
// predictions over a dataset.Store. Neighborhoods and vector
// norms are computed lazily per user: neighborhoods are cached in
// lock-sharded maps, so concurrent readers of distinct users never
// contend and readers of the same user share an RLock, and norms in a
// dense table read without any lock.
type Predictor struct {
	store *dataset.Store
	k     int
	// keep is k + M, the length a fill keeps of the ranking.
	keep int

	shards [numShards]userShard
	// counters track neighborhood-cache hits and misses (evictions are
	// impossible: the lazy caches only grow). See Stats.
	counters cacheCounters
	// epoch fences lazy fills against invalidation: a fill records the
	// epoch before its scan and installs only if it is unchanged, so a
	// computation that straddles a NoteIngest can never re-populate a
	// just-cleared cache with pre-ingest state.
	epoch atomic.Uint64
	// users is the store's user index: the walk accumulates over the
	// positions the rater columns record and lays its co-rater bitset out
	// on them; dots pools the kernel's dot-product vectors (*[]float64,
	// one per user, all zero at rest).
	users *dataset.Index[dataset.UserID]
	dots  sync.Pool
	work  scanWork
	// normBits[i] caches the vector norm n of user Users()[i] as
	// Float64bits(-n), so that 0 — which no negated norm encodes, -0
	// included — means not cached. Reads are lock-free; an install and
	// the ingest's clear both happen under the user's stripe lock (see
	// norm and bumpEpoch).
	normBits []atomic.Uint64
	// items is the store's item index, which the batch kernel's slot
	// table and the fallback means are laid out on; scratch pools the
	// kernel's working sets (*batchScratch, all zero at rest).
	items   *dataset.Index[dataset.ItemID]
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
// live store runs this exact loop, so a live world and a cold
// rebuild agree to the last bit.
func computePredictorMeans(store *dataset.Store) *predictorMeans {
	n := len(store.Items())
	m := &predictorMeans{sums: make([]float64, n), counts: make([]int, n)}
	for i := range n {
		m.sums[i], m.counts[i] = sumRatings(store.RatersAt(i).Value)
	}
	m.total()
	return m
}

// sumRatings adds one item's rating values in column order.
func sumRatings(vs []float64) (float64, int) {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s, len(vs)
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
// position ix gained a rating: only that item's values vs are re-summed (the
// inner loop of computePredictorMeans), then the per-item sums are
// re-added in ascending item order — every addition the full
// recomputation's outer loop makes, in its order, so the two agree to
// the last bit.
func (m *predictorMeans) withItem(ix int, vs []float64) *predictorMeans {
	next := &predictorMeans{sums: slices.Clone(m.sums), counts: slices.Clone(m.counts)}
	next.sums[ix], next.counts[ix] = sumRatings(vs)
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

// NewPredictor builds a predictor over store with neighborhoods of
// size kNeighbors (DefaultNeighbors if <= 0) using cosine similarity —
// the paper's §4 configuration. The store must not be nil.
func NewPredictor(store *dataset.Store, kNeighbors int) (*Predictor, error) {
	if store == nil {
		return nil, fmt.Errorf("cf: NewPredictor requires a store")
	}
	if kNeighbors <= 0 {
		kNeighbors = DefaultNeighbors
	}
	p := &Predictor{
		store: store,
		k:     kNeighbors,
		keep:  kNeighbors + kNeighbors/marginDivisor,
		users: store.UserIndex(),
		items: store.ItemIndex(),
	}
	for i := range p.shards {
		p.shards[i].neighbors = make(map[dataset.UserID]neighborhood)
	}
	nUsers, nItems := len(store.Users()), len(store.Items())
	p.normBits = make([]atomic.Uint64, nUsers)
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

// cosineCorated is Cosine plus whether the two users co-rated at least
// one item — one pairwise merge-join of the two rows. It serves
// single-pair questions (Cosine, group formation); a neighborhood fill
// gets the same floats and the same co-rater set for every v at once
// from the walk in scan.go, which the tests hold to this function bit
// for bit.
func (p *Predictor) cosineCorated(u, v dataset.UserID) (float64, bool) {
	if u == v {
		return 1, true
	}
	p.work.pairMerges.Add(1)
	ru, rv := p.store.Row(u), p.store.Row(v)
	var dot float64
	corated := false
	i, j := 0, 0
	for i < ru.Len() && j < rv.Len() {
		switch {
		case ru.Pos[i] < rv.Pos[j]:
			i++
		case ru.Pos[i] > rv.Pos[j]:
			j++
		default:
			dot += ru.Value[i] * rv.Value[j]
			corated = true
			i++
			j++
		}
	}
	if dot == 0 {
		return 0, corated
	}
	return cosineFrom(dot, p.norm(u), p.norm(v)), corated
}

// stripe returns the lock stripe holding u's cached neighborhood.
func (p *Predictor) stripe(u dataset.UserID) *userShard {
	return &p.shards[shardIndex(uint64(u))]
}

// norm returns the L2 norm of u's rating vector (0 for a user outside
// the store, who rated nothing).
func (p *Predictor) norm(u dataset.UserID) float64 {
	if ui, ok := p.users.Pos(u); ok {
		return p.normAt(u, ui)
	}
	return 0
}

// normAt is norm for the user at dense index ui, read from the table
// when cached and computed and installed otherwise.
func (p *Predictor) normAt(u dataset.UserID, ui int) float64 {
	if b := p.normBits[ui].Load(); b != 0 {
		return -math.Float64frombits(b)
	}
	epoch := p.epoch.Load()
	var ss float64
	for _, v := range p.store.RowAt(ui).Value {
		ss += v * v
	}
	n := math.Sqrt(ss)
	p.installNorm(u, ui, n, epoch)
	return n
}

// installNorm caches n as the norm of u (dense index ui) under u's
// stripe lock, unless an ingest bumped the epoch since epoch was read:
// a norm of pre-ingest state is never cached after the ingest cleared
// the slot.
func (p *Predictor) installNorm(u dataset.UserID, ui int, n float64, epoch uint64) {
	sh := p.stripe(u)
	sh.mu.Lock()
	if p.epoch.Load() == epoch {
		p.normBits[ui].Store(math.Float64bits(-n))
	}
	sh.mu.Unlock()
}

// Neighbors returns u's k most similar users (excluding u and
// zero-similarity users), sorted by descending similarity. The result
// is cached; callers must not modify it. Concurrent first calls for
// the same user may compute the neighborhood twice; both computations
// yield the identical slice and one wins the cache, so the race is
// benign and never holds a lock during the walk over u's rater lists.
func (p *Predictor) Neighbors(u dataset.UserID) []Neighbor {
	sh := p.stripe(u)
	sh.mu.RLock()
	nb, ok := sh.neighbors[u]
	sh.mu.RUnlock()
	if ok {
		p.counters.hit()
		return nb.top(p.k)
	}
	p.counters.miss()

	epoch := p.epoch.Load()
	return p.finishFill(u, p.fill(u), epoch)
}

// finishFill ends a fill of u's neighborhood begun at epoch: it
// installs nb unless an ingest or a concurrent fill got there first, and
// returns the top-k to serve. The epoch check and the install share one
// hold of the stripe lock, and an ingest bumps the epoch before it reads
// any stripe for the neighborhoods to repair: a fill it does not find
// there is fenced, and one it finds is repaired.
func (p *Predictor) finishFill(u dataset.UserID, nb neighborhood, epoch uint64) []Neighbor {
	sh := p.stripe(u)
	sh.mu.Lock()
	if cached, ok := sh.neighbors[u]; ok {
		nb = cached // a concurrent computation won; keep one canonical slice
	} else if p.epoch.Load() == epoch {
		sh.neighbors[u] = nb
	}
	sh.mu.Unlock()
	return nb.top(p.k)
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
	return p.means.Load().fallback(p.items.Pos(it))
}

// PredictBatchInto writes u's prediction for each item in items into
// dst (len(items)). The user's neighborhood is resolved exactly once;
// each neighbor's item-sorted rating list is then streamed a single
// time, accumulating weighted sums per candidate slot —
// O(k·|neighbor ratings| + m) instead of the per-item O(m·k·log) of
// repeated Predict calls. Accumulation order per item matches Predict's
// neighbor order, so the results are bit-identical to the sequential
// path.
func (p *Predictor) PredictBatchInto(u dataset.UserID, items []dataset.ItemID, dst []float64) {
	sc := p.scratch.Get().(*batchScratch)
	p.batchWith(sc, u, items, dst)
	p.scratch.Put(sc)
}

// Positions maps items onto the dense item positions the batch kernel
// is laid out on, -1 for an item outside the store. The item index never
// changes after construction (a rating for an unknown item is refused),
// so a caller that predicts over the same items again and again — a
// list store over its pool — maps them once and calls
// PredictPositionsInto.
func (p *Predictor) Positions(items []dataset.ItemID) []int32 {
	pos := make([]int32, len(items))
	p.positionsInto(items, pos)
	return pos
}

// positionsInto writes the dense item position of items[i] into pos[i].
func (p *Predictor) positionsInto(items []dataset.ItemID, pos []int32) {
	for i, it := range items {
		pos[i] = -1
		if ix, ok := p.items.Pos(it); ok {
			pos[i] = int32(ix)
		}
	}
}

// PredictPositionsInto is PredictBatchInto over items already mapped by
// Positions: the same predictions, bit for bit, with no per-item lookup.
// pos is only read.
func (p *Predictor) PredictPositionsInto(u dataset.UserID, pos []int32, dst []float64) {
	sc := p.scratch.Get().(*batchScratch)
	p.batchAt(sc, u, pos, dst)
	p.scratch.Put(sc)
}

// batchScratch is one pooled working set of the batch kernel. Every
// entry is zero while the set rests in the pool: the kernel zeroes what
// it touched before it returns the set, because a mark or a partial sum
// left behind would leak one user's evidence into the next view.
type batchScratch struct {
	// slot[ix] is one plus the position in items of the first candidate
	// with dense item index ix, 0 for an item the batch does not ask for.
	slot []int32
	// pos[i] is candidate i's dense item index, -1 outside the store.
	pos []int32
	// num, den, own and ownSet are indexed by slot: entry s belongs to
	// the candidate at position s-1, and entry 0 is the sink the entries
	// of items outside the batch add into, so the walk over a row takes
	// no branch on whether an entry is asked for. pos and these four are
	// grown to the largest batch seen.
	num, den, own []float64
	ownSet        []bool
}

// grow sizes the working set for a batch of n.
func (sc *batchScratch) grow(n int) {
	if n+1 > len(sc.num) {
		sc.pos = make([]int32, n)
		sc.num, sc.den, sc.own = make([]float64, n+1), make([]float64, n+1), make([]float64, n+1)
		sc.ownSet = make([]bool, n+1)
	}
}

// batchWith maps the candidates to dense item positions in sc's own
// position buffer and runs the kernel over them.
func (p *Predictor) batchWith(sc *batchScratch, u dataset.UserID, items []dataset.ItemID, dst []float64) {
	n := len(items)
	sc.grow(n)
	pos := sc.pos[:n]
	p.positionsInto(items, pos)
	p.batchAt(sc, u, pos, dst)
	clear(pos)
}

// batchAt is the batch kernel, run on the working set sc, which must
// be all zero and is all zero again on return. pos holds the candidates'
// dense item positions (-1 outside the store); a row entry's
// accumulation slot is the slot table at the entry's position — marked
// for the first occurrence of each item, so duplicate candidates share a
// slot — with no lookup per entry. It preserves Predict's per-item
// accumulation order (neighbors in Neighbors order, each row in list
// order), first-duplicate-wins rating semantics, own-rating override,
// and fallback ladder — the invariants that keep batch results
// bit-identical to sequential.
func (p *Predictor) batchAt(sc *batchScratch, u dataset.UserID, pos []int32, dst []float64) {
	n := len(pos)
	sc.grow(n)
	slot := sc.slot
	num, den, own, ownSet := sc.num[:n+1], sc.den[:n+1], sc.own[:n+1], sc.ownSet[:n+1]
	for i, ix := range pos {
		if ix >= 0 && slot[ix] == 0 {
			slot[ix] = int32(i) + 1
		}
	}
	for _, nb := range p.Neighbors(u) {
		row := p.store.Row(nb.User)
		vals := row.Value[:len(row.Pos)]
		for k, ix := range row.Pos {
			if k > 0 && row.Pos[k-1] == ix {
				continue // duplicate rating; the sequential lookup sees only the first
			}
			s := slot[ix]
			num[s] += nb.Sim * vals[k]
			den[s] += nb.Sim
		}
	}
	// Own ratings override neighbor evidence, as in Predict.
	row := p.store.Row(u)
	for k, ix := range row.Pos {
		if s := slot[ix]; s != 0 && !ownSet[s] {
			own[s], ownSet[s] = row.Value[k], true
		}
	}
	means := p.means.Load()
	for i, ix := range pos {
		if ix < 0 {
			dst[i] = means.globalMean // outside the store: nobody rated it
			continue
		}
		s := slot[ix]
		switch {
		case ownSet[s]:
			dst[i] = own[s]
		case den[s] > 0:
			dst[i] = clampRating(num[s] / den[s])
		default:
			dst[i] = means.fallback(int(ix), true)
		}
	}
	for _, ix := range pos {
		if ix >= 0 {
			slot[ix] = 0
		}
	}
	clear(num)
	clear(den)
	clear(own)
	clear(ownSet)
}

// Stats snapshots the lazy neighborhood cache's counters: a hit is a
// Neighbors call answered from the cache, a miss one that had to walk
// the user's rater lists. Size is the number of cached neighborhoods
// (the cache only grows, bounded by the user count).
func (p *Predictor) Stats() CacheStats {
	return p.counters.snapshot(p.CachedNeighborhoods())
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
