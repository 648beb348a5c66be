package repro

import (
	"fmt"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/liststore"
	"repro/internal/remote"
	"repro/internal/shard"
)

// This file is the world's side of the distributed deployment: the
// router attaches a remote.ShardSet so its list store's view misses
// scatter to worker processes, and a worker wraps a user plane in a
// ShardBackend so remote.Server can serve them. Both processes build
// the same deterministic world from the same configuration — the
// config fingerprint handshake enforces it — so moving shards out of
// process never changes a served byte; see DESIGN.md "Distributed
// world".

// ConfigFingerprint identifies the world-shaping configuration — the
// same FNV-64a digest the persistence layer gates snapshots and WALs
// with, reused by the distributed hello handshake so a router only
// talks to workers built from its exact world.
func (w *World) ConfigFingerprint() uint64 { return w.fingerprint }

// AttachRemote switches the world's per-user data plane to the worker
// fleet behind set: the list store's views are fetched from each user's
// owning worker instead of built in place, rating ingest fans out to
// every replica, and CacheStats adds the workers' neighborhood counters
// to the world's own. The world's list store stays the deployment's only
// view cache: a worker computes the scores it serves and keeps none.
// Dense rows — a candidate slice the views cannot serve — stay local:
// the router is a full replica that folds every rating before fanning
// it out, so its own predictor computes exactly the rows a worker
// would. The topology's shard count must
// equal the world's (remote.ErrConfigMismatch otherwise), and every
// worker must be reachable and fingerprint-identical (the handshake
// runs eagerly here, so a misconfigured fleet fails at boot, not on the
// first request).
//
// Call before serving traffic; attaching is not synchronized against
// in-flight requests.
func (w *World) AttachRemote(set *remote.ShardSet) error {
	if err := set.Handshake(w.ConfigFingerprint(), w.sm.N()); err != nil {
		return fmt.Errorf("repro: attaching remote shards: %w", err)
	}
	w.remote = set
	// The router's list store keeps its views, its capacity
	// (Config.ListStoreSize) and its pool, and fetches its misses
	// instead of building them: a view fetched once serves every later
	// assembly until a rating drops it.
	// Everything else about it — CLOCK eviction, the drop AddRating ends
	// in, the mid-build unlink that fences fetches against ingest — is
	// the store's, unchanged.
	w.lists.SetBuilder(fetchViews(set, len(w.lists.Pool())))
	return nil
}

// fetchViews is the list store's distributed builder: one view RPC per
// owning worker for all of a call's misses, each view reconstructed
// from the score vector on the wire — the canonical sort is
// deterministic, so it is bit-identical to the worker's own. A view is
// the pool-order score vector, so every vector must hold exactly
// poolSize scores; the transport refuses any other length
// (ErrProtocol) before assembly indexes it.
func fetchViews(set *remote.ShardSet, poolSize int) liststore.Builder {
	return func(users []dataset.UserID) ([]*liststore.View, error) {
		scores, err := set.ViewScoresMulti(users, poolSize)
		if err != nil {
			return nil, err
		}
		views := make([]*liststore.View, len(scores))
		for i, sc := range scores {
			views[i] = liststore.NewView(sc)
		}
		return views, nil
	}
}

// ShardBackend is the worker process's side of the data plane: the
// user plane of a replica world — rating store and predictor, nothing of
// its global plane, no view cache — serving the users of the shards this
// worker owns, behind the remote.Backend interface cmd/greca-shard plugs
// into remote.NewServer.
type ShardBackend struct {
	p     *userPlane
	owned []int
	boot  BootTimes
}

// NewShardBackend wraps w's user plane as the backend for the given
// owned shards. Shard indexes must be valid for the world and free of
// duplicates. The backend keeps a reference to the user plane only, so
// once the caller drops w, the social network, the synthetic latents and
// the affinity model are garbage. A worker that has no world yet boots
// its user plane alone with NewShardBackendFromConfig.
//
// The backend computes every score vector it serves and keeps none: the
// router's list store is the deployment's one view cache. w's own list
// store is not the backend's, so w must not serve in-process requests
// once the backend applies ratings: they do not drop w's views.
func NewShardBackend(w *World, owned []int) (*ShardBackend, error) {
	if err := checkOwned(w.sm, owned); err != nil {
		return nil, err
	}
	return newShardBackend(w.userPlane, owned, w.boot), nil
}

// NewShardBackendFromConfig boots a worker's backend from cfg alone: the
// ratings arm of NewWorld (bootRatings) and the user plane over it
// (newUserPlane), and nothing else. It builds no social network — the
// social readers, if set, are never read — no affinity model, and keeps
// no synthetic latents. Its fingerprint and every view score equal those
// of NewShardBackend(NewWorld(cfg), owned). It refuses the owned shards
// NewShardBackend refuses, then what NewWorld refuses short of the
// network arm, in NewWorld's order: the ratings error, a social
// population larger than the rating users, half-set social readers.
func NewShardBackendFromConfig(cfg Config, owned []int) (*ShardBackend, error) {
	sm, scfg, err := bootConfig(cfg)
	if err != nil {
		return nil, err
	}
	if err := checkOwned(sm, owned); err != nil {
		return nil, err
	}
	rs := bootRatings(cfg, scfg)
	if rs.err != nil {
		return nil, rs.err
	}
	if err := checkPopulation(scfg, rs.store); err != nil {
		return nil, err
	}
	if err := checkSocialReaders(cfg); err != nil {
		return nil, err
	}
	start := time.Now()
	p, err := newUserPlane(rs.store, cfg, sm)
	if err != nil {
		return nil, err
	}
	return newShardBackend(p, owned, BootTimes{Ratings: rs.took, UserPlane: time.Since(start)}), nil
}

// checkOwned refuses an empty shard list, a shard outside sm and a
// shard named twice.
func checkOwned(sm *shard.Map, owned []int) error {
	if len(owned) == 0 {
		return fmt.Errorf("repro: shard backend owns no shards")
	}
	seen := make(map[int]bool, len(owned))
	for _, sh := range owned {
		if sh < 0 || sh >= sm.N() {
			return fmt.Errorf("repro: owned shard %d outside [0,%d)", sh, sm.N())
		}
		if seen[sh] {
			return fmt.Errorf("repro: shard %d owned twice", sh)
		}
		seen[sh] = true
	}
	return nil
}

// newShardBackend wraps p for the owned shards, which checkOwned has
// accepted.
func newShardBackend(p *userPlane, owned []int, boot BootTimes) *ShardBackend {
	return &ShardBackend{p: p, owned: append([]int(nil), owned...), boot: boot}
}

// Ratings returns the replica's rating store.
func (b *ShardBackend) Ratings() *dataset.Store { return b.p.ratings }

// BootTimes reports how long each stage of the backend's boot took: the
// world's stages for NewShardBackend, the ratings and the user plane
// alone for NewShardBackendFromConfig.
func (b *ShardBackend) BootTimes() BootTimes { return b.boot }

// Fingerprint implements remote.Backend.
func (b *ShardBackend) Fingerprint() uint64 { return b.p.fingerprint }

// Shards implements remote.Backend.
func (b *ShardBackend) Shards() int { return b.p.sm.N() }

// Owned implements remote.Backend.
func (b *ShardBackend) Owned() []int { return append([]int(nil), b.owned...) }

// ViewScores implements remote.Backend: u's pool-order normalized view
// scores, one batch prediction over the pool (engine.Scores), computed
// per call and kept nowhere.
func (b *ShardBackend) ViewScores(u dataset.UserID) ([]float64, error) {
	return engine.Scores(b.p.pred, b.p.poolPos, u), nil
}

// Apply implements remote.Backend: ingest one fanned-out rating into
// the replica through the plane's write path, which journals and fans
// out nothing on a worker. Rejections unwrap to the dataset sentinels,
// which the transport relays by code.
func (b *ShardBackend) Apply(r dataset.Rating) error { return b.p.ingest(r, nil) }

// Stats implements remote.Backend: the replica's neighborhood-cache
// totals. The worker answers only for its owned shards' users, so they
// count exactly those users' traffic.
func (b *ShardBackend) Stats() remote.Stats { return remote.Stats{Neighborhoods: b.p.pred.Stats()} }
