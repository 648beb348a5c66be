package cf

import (
	"cmp"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// ItemPredictor is an item-based collaborative filtering predictor:
// the predicted rating of u for item i is the similarity-weighted
// average of u's own ratings on the items most similar to i (adjusted
// cosine item-item similarity). It is an alternative apref source —
// the paper's formulation is agnostic to how absolute preferences are
// produced, and item-based CF is the classic counterpart to the
// user-based predictor the paper evaluates with.
type ItemPredictor struct {
	store *dataset.Store
	k     int

	// shards hold the lazy item-neighborhood cache under striped locks,
	// mirroring Predictor's per-user lock striping.
	shards [numShards]itemShard
	// counters track item-neighborhood cache hits and misses; see Stats.
	counters cacheCounters
	// epoch fences lazy fills against invalidation (see
	// Predictor.epoch).
	epoch atomic.Uint64
	// means holds the per-user (adjusted-cosine centering), per-item,
	// and global means as one immutable snapshot; NoteIngest recomputes
	// and swaps it.
	means atomic.Pointer[itemPredictorMeans]
}

// itemPredictorMeans is one immutable snapshot of the item predictor's
// mean tables.
type itemPredictorMeans struct {
	// userMean caches each user's mean rating for the adjusted-cosine
	// centering.
	userMean   map[dataset.UserID]float64
	itemMean   map[dataset.ItemID]float64
	globalMean float64
}

// computeItemPredictorMeans derives the mean tables from the store,
// with the same accumulation order as a cold construction (users
// ascending, then items ascending) so live recomputation is
// bit-identical to a rebuild.
func computeItemPredictorMeans(store *dataset.Store) *itemPredictorMeans {
	m := &itemPredictorMeans{
		userMean: make(map[dataset.UserID]float64),
		itemMean: make(map[dataset.ItemID]float64),
	}
	var sum float64
	n := 0
	for _, u := range store.Users() {
		rs := store.ByUser(u)
		var s float64
		for _, r := range rs {
			s += r.Value
		}
		if len(rs) > 0 {
			m.userMean[u] = s / float64(len(rs))
		}
		sum += s
		n += len(rs)
	}
	for _, it := range store.Items() {
		rs := store.ByItem(it)
		var s float64
		for _, r := range rs {
			s += r.Value
		}
		if len(rs) > 0 {
			m.itemMean[it] = s / float64(len(rs))
		}
	}
	if n > 0 {
		m.globalMean = sum / float64(n)
	} else {
		m.globalMean = 3
	}
	return m
}

type itemShard struct {
	mu sync.RWMutex
	// neighbors[i] caches item i's top-k similar items.
	neighbors map[dataset.ItemID][]itemNeighbor
}

type itemNeighbor struct {
	item dataset.ItemID
	sim  float64
}

// NewItemPredictor builds an item-based predictor over a frozen store.
func NewItemPredictor(store *dataset.Store, kNeighbors int) (*ItemPredictor, error) {
	if store == nil || !store.Frozen() {
		return nil, fmt.Errorf("cf: NewItemPredictor requires a frozen store")
	}
	if kNeighbors <= 0 {
		kNeighbors = DefaultNeighbors
	}
	p := &ItemPredictor{store: store, k: kNeighbors}
	for i := range p.shards {
		p.shards[i].neighbors = make(map[dataset.ItemID][]itemNeighbor)
	}
	p.means.Store(computeItemPredictorMeans(store))
	return p, nil
}

// AdjustedCosine returns the adjusted cosine similarity of two items:
// cosine over co-raters with each rating centered by the rater's mean.
func (p *ItemPredictor) AdjustedCosine(a, b dataset.ItemID) float64 {
	if a == b {
		return 1
	}
	ra, rb := p.store.ByItem(a), p.store.ByItem(b)
	userMean := p.means.Load().userMean
	var dot, na, nb float64
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i].User < rb[j].User:
			i++
		case ra[i].User > rb[j].User:
			j++
		default:
			m := userMean[ra[i].User]
			x, y := ra[i].Value-m, rb[j].Value-m
			dot += x * y
			na += x * x
			nb += y * y
			i++
			j++
		}
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / math.Sqrt(na*nb)
}

// itemNeighborsOf returns item it's top-k positively similar items.
// Concurrent first calls may compute twice; one result wins the cache.
func (p *ItemPredictor) itemNeighborsOf(it dataset.ItemID) []itemNeighbor {
	sh := &p.shards[shardIndex(uint64(it))]
	sh.mu.RLock()
	ns, ok := sh.neighbors[it]
	sh.mu.RUnlock()
	if ok {
		p.counters.hit()
		return ns
	}
	p.counters.miss()

	epoch := p.epoch.Load()
	all := make([]itemNeighbor, 0, 64)
	for _, other := range p.store.Items() {
		if other == it {
			continue
		}
		if s := p.AdjustedCosine(it, other); s > 0 {
			all = append(all, itemNeighbor{other, s})
		}
	}
	all = keepTop(all, p.k, func(a, b itemNeighbor) int {
		if a.sim != b.sim {
			return cmp.Compare(b.sim, a.sim)
		}
		return cmp.Compare(a.item, b.item)
	})
	ns = append([]itemNeighbor(nil), all...)
	sh.mu.Lock()
	if cached, ok := sh.neighbors[it]; ok {
		ns = cached
	} else if p.epoch.Load() == epoch {
		sh.neighbors[it] = ns
	}
	sh.mu.Unlock()
	return ns
}

// Predict returns the item-based prediction of u for item it on the
// 1..5 scale, with item-mean and global-mean fallbacks.
func (p *ItemPredictor) Predict(u dataset.UserID, it dataset.ItemID) float64 {
	if v, ok := p.store.Value(u, it); ok {
		return v
	}
	var num, den float64
	for _, nb := range p.itemNeighborsOf(it) {
		if v, ok := p.store.Value(u, nb.item); ok {
			num += nb.sim * v
			den += nb.sim
		}
	}
	if den > 0 {
		return clampRating(num / den)
	}
	means := p.means.Load()
	if m, ok := means.itemMean[it]; ok {
		return m
	}
	return means.globalMean
}

// PredictBatch returns predictions of u for each item in items. The
// user's own rating vector — the item-based analog of a user
// neighborhood — is resolved into a lookup map exactly once; each
// candidate then streams its cached item neighborhood against it.
// Per-item accumulation order matches Predict, so results are
// bit-identical to the sequential path.
func (p *ItemPredictor) PredictBatch(u dataset.UserID, items []dataset.ItemID) []float64 {
	out := make([]float64, len(items))
	p.PredictBatchInto(u, items, out)
	return out
}

// PredictBatchInto is PredictBatch writing into dst (len(items)). It
// keeps its own loop and its per-call map of the user's row, not the
// user-based kernel's dense item index: no measured workload builds an
// item-based world.
func (p *ItemPredictor) PredictBatchInto(u dataset.UserID, items []dataset.ItemID, dst []float64) {
	ru := p.store.ByUser(u)
	rated := make(map[dataset.ItemID]float64, len(ru))
	for _, r := range ru {
		if _, ok := rated[r.Item]; !ok {
			rated[r.Item] = r.Value // first record wins, matching Value's lookup
		}
	}
	// Duplicate candidates recompute via the neighbor cache, which is
	// hot after the first occurrence; no slot table is needed here.
	means := p.means.Load()
	for i, it := range items {
		if v, ok := rated[it]; ok {
			dst[i] = v
			continue
		}
		var num, den float64
		for _, nb := range p.itemNeighborsOf(it) {
			if v, ok := rated[nb.item]; ok {
				num += nb.sim * v
				den += nb.sim
			}
		}
		if den > 0 {
			dst[i] = clampRating(num / den)
		} else if m, ok := means.itemMean[it]; ok {
			dst[i] = m
		} else {
			dst[i] = means.globalMean
		}
	}
}

// GlobalMean returns the dataset mean rating.
func (p *ItemPredictor) GlobalMean() float64 { return p.means.Load().globalMean }

// Stats snapshots the lazy item-neighborhood cache's counters. Size is
// the number of cached item neighborhoods.
func (p *ItemPredictor) Stats() CacheStats {
	return p.counters.snapshot(p.cachedNeighborhoods())
}

// cachedNeighborhoods counts the resident item neighborhoods.
func (p *ItemPredictor) cachedNeighborhoods() int {
	n := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.RLock()
		n += len(sh.neighbors)
		sh.mu.RUnlock()
	}
	return n
}
