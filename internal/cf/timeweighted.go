package cf

import (
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/dataset"
)

// TimeWeightedPredictor implements the time-weight collaborative
// filtering of Ding & Li (CIKM 2005), which the paper cites as the
// related single-user temporal baseline ([8]): each neighbor rating is
// down-weighted exponentially with its age, so recent opinions count
// more. Where the paper's contribution makes *affinities* temporal,
// this baseline makes *ratings* temporal — having both in the repo lets
// the two notions of time be compared on the same substrate.
type TimeWeightedPredictor struct {
	base *Predictor
	// HalfLife is the rating age, in seconds, at which a rating's
	// weight drops to one half.
	HalfLife int64
	// now is the reference timestamp (the newest rating in the store);
	// atomic because live ingest can advance it (Advance) while
	// predictions read it.
	now atomic.Int64
}

// DefaultHalfLife is 180 days — mid-range of the decay settings the
// CIKM'05 paper explores.
const DefaultHalfLife = int64(180 * 24 * 3600)

// NewTimeWeightedPredictor wraps a user-based predictor with
// exponential time decay. halfLife <= 0 selects DefaultHalfLife.
func NewTimeWeightedPredictor(base *Predictor, halfLife int64) (*TimeWeightedPredictor, error) {
	if base == nil {
		return nil, fmt.Errorf("cf: NewTimeWeightedPredictor requires a base predictor")
	}
	if halfLife <= 0 {
		halfLife = DefaultHalfLife
	}
	p := &TimeWeightedPredictor{base: base, HalfLife: halfLife}
	p.now.Store(maxRatingTime(base.store))
	return p, nil
}

// maxRatingTime returns the newest rating timestamp in the store (0
// for an empty store).
func maxRatingTime(store *dataset.Store) int64 {
	var now int64
	for _, u := range store.Users() {
		for _, r := range store.ByUser(u) {
			if r.Time > now {
				now = r.Time
			}
		}
	}
	return now
}

// Advance is the live-ingest hook: a rating stamped t was just applied,
// and if it is newer than every rating seen so far it becomes the
// reference timestamp, which shifts every decay weight. Callers
// serialize Advance calls (the World's ingest lock), so a plain
// compare-then-store suffices; readers load the atomic.
func (p *TimeWeightedPredictor) Advance(t int64) {
	if t > p.now.Load() {
		p.now.Store(t)
	}
}

// weight returns the decay factor of a rating stamped at t relative to
// the current reference timestamp. Hot loops use weightAt with a
// single load instead.
func (p *TimeWeightedPredictor) weight(t int64) float64 {
	return p.weightAt(p.now.Load(), t)
}

// weightAt returns the decay factor of a rating stamped at t, relative
// to the reference timestamp now.
func (p *TimeWeightedPredictor) weightAt(now, t int64) float64 {
	age := now - t
	if age <= 0 {
		return 1
	}
	return math.Exp2(-float64(age) / float64(p.HalfLife))
}

// Predict returns the time-weighted k-NN prediction of u for item it
// on the 1..5 scale, with the same fallback ladder as the base
// predictor (own rating → weighted neighbors → item mean → global
// mean).
func (p *TimeWeightedPredictor) Predict(u dataset.UserID, it dataset.ItemID) float64 {
	if v, ok := p.base.store.Value(u, it); ok {
		return v
	}
	now := p.now.Load()
	var num, den float64
	for _, nb := range p.base.Neighbors(u) {
		rating, ok := p.ratingOf(nb.User, it)
		if !ok {
			continue
		}
		w := nb.Sim * p.weightAt(now, rating.Time)
		num += w * rating.Value
		den += w
	}
	if den > 0 {
		return clampRating(num / den)
	}
	return p.base.means.Load().fallback(p.base.items.of(it))
}

// PredictBatch returns time-weighted predictions of u for each item in
// items. The base neighborhood is resolved exactly once; each
// neighbor's rating list is streamed a single time with the decay
// weight applied per rating. Accumulation order per item matches
// Predict, so results are bit-identical to the sequential path.
func (p *TimeWeightedPredictor) PredictBatch(u dataset.UserID, items []dataset.ItemID) []float64 {
	out := make([]float64, len(items))
	p.PredictBatchInto(u, items, out)
	return out
}

// PredictBatchInto is PredictBatch writing into dst (len(items)). It
// delegates to the base predictor's shared accumulation core with the
// decay factor folded into each rating's weight.
func (p *TimeWeightedPredictor) PredictBatchInto(u dataset.UserID, items []dataset.ItemID, dst []float64) {
	now := p.now.Load()
	p.base.batchInto(u, items, dst, func(nb Neighbor, r dataset.Rating) float64 {
		return nb.Sim * p.weightAt(now, r.Time)
	})
}

// ratingOf finds v's full rating record for item it.
func (p *TimeWeightedPredictor) ratingOf(v dataset.UserID, it dataset.ItemID) (dataset.Rating, bool) {
	for _, r := range p.base.store.ByUser(v) {
		if r.Item == it {
			return r, true
		}
		if r.Item > it {
			break // item-sorted
		}
	}
	return dataset.Rating{}, false
}

// Now returns the reference timestamp.
func (p *TimeWeightedPredictor) Now() int64 { return p.now.Load() }

// Stats snapshots the base predictor's neighborhood-cache counters —
// the time-weighted path shares the base neighborhoods, so they are
// the same cache.
func (p *TimeWeightedPredictor) Stats() CacheStats { return p.base.Stats() }
