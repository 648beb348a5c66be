package repro

import (
	"fmt"
	"sync"

	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/shard"
)

// userPlane is the part of a world that answers per-member questions:
// the rating store, the CF predictor over it, the popularity pool the
// views cover, the shard map and the configuration fingerprint, and the
// one path a rating takes through them. A World holds one beside its
// global plane; a shard worker (ShardBackend) holds a user plane and
// nothing else, since it answers view scores, applies and stats and
// never reads the social network or the affinity model. It caches no
// view: the sorted-list store is the global plane's. See DESIGN.md,
// "Membership and the full-replica model".
type userPlane struct {
	ratings *dataset.Store
	// pred is the absolute-preference source: the user-based cosine CF
	// predictor.
	pred *cf.Predictor
	// pool is the store's popularity ranking at load, the items every
	// view scores; poolPos is it mapped once onto pred's item positions,
	// which is what every view's scores are predicted over
	// (engine.Scores).
	pool    []dataset.ItemID
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

// newUserPlane builds the predictor over ratings and maps the pool onto
// it.
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
		pool:        pool,
		poolPos:     pos,
		sm:          sm,
		fingerprint: configFingerprint(cfg),
	}, nil
}

// ingest is the plane's one write path. The rating lands in the store,
// and the neighborhoods it reaches are repaired (store first, then the
// predictor: its recomputed means must see the new rating). Then settle
// runs, if set, still under ingestMu: a world journals the rating, fans
// it out and drops its views there, and settle's error is returned. A
// rejected rating leaves everything untouched, runs no settle, and
// unwraps to the dataset package's typed errors.
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
	if settle == nil {
		return nil
	}
	return settle()
}
