package repro

import (
	"fmt"
	"sync"

	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/liststore"
	"repro/internal/shard"
)

// userPlane is the part of a world that answers per-member questions:
// the rating store, the CF predictor over it, the sorted-list store of
// per-user views, the shard map and the configuration fingerprint, and
// the one path a rating takes through them. A World holds one beside
// its global plane; a shard worker (ShardBackend) holds a user plane
// and nothing else, since it answers views, applies and stats and never
// reads the social network or the affinity model. See DESIGN.md,
// "Membership and the full-replica model".
type userPlane struct {
	ratings *dataset.Store
	// pred is the absolute-preference source: the user-based cosine CF
	// predictor.
	pred *cf.Predictor
	// lists is the sorted-list store over the popularity pool. In-process
	// its views are built from pred; a worker builds scores only
	// (NewShardBackend); AttachRemote points a router's at a builder that
	// fetches them from the owning workers.
	lists *liststore.Store
	// poolPos is the pool mapped once onto pred's item positions, which
	// is what every local view build predicts over.
	poolPos []int32
	// sm routes users onto shards — the workers of a distributed
	// deployment.
	sm *shard.Map
	// fingerprint is the configuration fingerprint (configFingerprint)
	// of the world the plane was built for.
	fingerprint uint64
	// ingestMu serializes the rating write path (ingest, snapshots): one
	// ingest at a time keeps the store mutation and the cache
	// invalidations it triggers a single atomic event from any other
	// writer's point of view. Readers never take it.
	ingestMu sync.Mutex
	// dropAllNeighborhoods swaps the predictor's scoped ingest hook for
	// its drop-everything counterpart. No configuration sets it: it
	// is the reference scheme the scoped one is differentially tested
	// and benchmarked against (export_test.go).
	dropAllNeighborhoods bool
}

// newUserPlane builds the predictor and the list store over ratings.
// The list store's pool is the store's popularity ranking at load
// (views materialize lazily per user, bounded by a CLOCK policy).
func newUserPlane(ratings *dataset.Store, cfg Config, sm *shard.Map) (*userPlane, error) {
	pred, err := cf.NewPredictor(ratings, cfg.Neighbors)
	if err != nil {
		return nil, fmt.Errorf("repro: building CF predictor: %w", err)
	}
	pool := ratings.PopularityRanked()
	pos := pred.Positions(pool)
	return &userPlane{
		ratings:     ratings,
		pred:        pred,
		lists:       liststore.NewOver(engine.LocalBuilder(pred, pos), pool, cfg.ListStoreSize),
		poolPos:     pos,
		sm:          sm,
		fingerprint: configFingerprint(cfg),
	}, nil
}

// ingest is the plane's one write path. The rating lands in the store,
// and the neighborhoods it reaches are repaired (store first, then the
// predictor: its recomputed means must see the new rating). Then settle
// runs, if set: a world journals the rating and fans it out there, and
// its error is returned. Last, every view drops. A rejected rating
// leaves everything untouched, runs no settle, and unwraps to the
// dataset package's typed errors.
//
// The views drop last, once the rating is applied everywhere it is
// going to be. Builds in flight need no extra fence: a view still
// mid-build when the sweep passes is unlinked by it (see
// liststore.AcquireMulti), and one started afterwards reads post-ingest
// state wherever it is built.
func (p *userPlane) ingest(r dataset.Rating, settle func() error) error {
	p.ingestMu.Lock()
	defer p.ingestMu.Unlock()
	if err := p.ratings.Apply(r); err != nil {
		return fmt.Errorf("repro: applying rating: %w", err)
	}
	if p.dropAllNeighborhoods {
		p.pred.NoteIngest(r.User)
	} else {
		p.pred.NoteIngestScoped(r.User, r.Item)
	}
	var err error
	if settle != nil {
		err = settle()
	}
	p.lists.InvalidateAll()
	return err
}

// cacheStats snapshots the plane's own list-store and neighborhood
// counters.
func (p *userPlane) cacheStats() CacheStats {
	return CacheStats{ListStore: p.lists.Stats(), Neighborhoods: p.pred.Stats()}
}
