package repro

import (
	"fmt"
	"sort"

	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/liststore"
	"repro/internal/remote"
)

// This file is the world's side of the distributed deployment: the
// router attaches a remote.ShardSet so per-user data-plane reads
// scatter to worker processes, and a worker wraps its world in a
// ShardBackend so remote.Server can serve them. Both processes build
// the same deterministic world from the same configuration — the
// config fingerprint handshake enforces it — so moving shards out of
// process never changes a served byte; see DESIGN.md "Distributed
// world".

// ConfigFingerprint identifies the world-shaping configuration — the
// same FNV-64a digest the persistence layer gates snapshots and WALs
// with, reused by the distributed hello handshake so a router only
// talks to workers built from its exact world.
func (w *World) ConfigFingerprint() uint64 { return configFingerprint(w.cfg) }

// AttachRemote switches the world's per-user data plane to the worker
// fleet behind set: the list store's views are fetched from each user's
// owning worker instead of built in place, prediction rows route the
// same way, rating ingest fans out to every replica, and /v1/stats
// reports the workers' cache counters. The topology's shard count must
// equal the world's, and every worker must be reachable and
// fingerprint-identical (the handshake runs eagerly here, so a
// misconfigured fleet fails at boot, not on the first request).
//
// Call before serving traffic; attaching is not synchronized against
// in-flight requests.
func (w *World) AttachRemote(set *remote.ShardSet) error {
	if set.Shards() != w.sm.N() {
		return fmt.Errorf("repro: topology has %d shards, world has %d", set.Shards(), w.sm.N())
	}
	if err := set.Handshake(w.ConfigFingerprint(), w.sm.N()); err != nil {
		return fmt.Errorf("repro: attaching remote shards: %w", err)
	}
	// A view is the pool-order score vector, so its length is exactly
	// the candidate pool's — pin the transport's claimed-total bound to
	// it, rejecting any larger claim before allocation.
	pool := w.ratings.PopularityRanked()
	set.LimitViewScores(len(pool))
	w.remote = set
	// The router's own list store sat idle; replace it with one over the
	// fetch builder, retaining Config.RemoteViewCache views (none by
	// default: acquire, fetch, return). Everything else about it — CLOCK
	// eviction, the scoped sweep AddRating runs, the mid-build unlink
	// that fences fetches against ingest — is the store's, unchanged.
	if w.lists != nil {
		w.lists = liststore.NewOver(fetchViews(set, pool), pool, w.cfg.RemoteViewCache, prefDivisor, w.sm)
		w.asm.AttachListStore(w.lists)
	}
	w.asm.AttachRows(func(users []dataset.UserID, items []dataset.ItemID, dst [][]float64) error {
		rows, err := set.PredictBatchMulti(users, items)
		if err != nil {
			return err
		}
		for i, row := range rows {
			copy(dst[i], row)
		}
		return nil
	})
	return nil
}

// Remote returns the attached worker fleet, or nil in-process.
func (w *World) Remote() *remote.ShardSet { return w.remote }

// fetchViews is the list store's distributed builder: one view RPC per
// owning worker for all of a call's misses, each view reconstructed
// from the score vector on the wire — the canonical sort is
// deterministic, so it is bit-identical to the worker's own — together
// with the dependency metadata the worker's build recorded. Fallback
// positions travel as candidate-pool indexes, and the router's pool is
// bit-identical to the worker's (the fingerprint handshake guarantees
// it), so pool[pos] recovers the item IDs the scoped sweep matches
// against. A position outside the pool marks the metadata unusable,
// never a panic.
func fetchViews(set *remote.ShardSet, pool []dataset.ItemID) liststore.Builder {
	return func(users []dataset.UserID) ([]*liststore.View, error) {
		res, err := set.ViewScoresMulti(users)
		if err != nil {
			return nil, err
		}
		views := make([]*liststore.View, len(res))
		for i, r := range res {
			deps, known := wireDeps(r, pool)
			views[i] = liststore.NewView(r.Scores, deps, known)
		}
		return views, nil
	}
}

// wireDeps maps a fetched view's fallback positions back to items
// through the pool.
func wireDeps(r remote.ViewResult, pool []dataset.ItemID) (cf.RowDeps, bool) {
	if !r.DepsKnown {
		return cf.RowDeps{}, false
	}
	deps := cf.RowDeps{UsedGlobal: r.UsedGlobal}
	if n := len(r.FallbackPos); n > 0 {
		deps.FallbackPos = r.FallbackPos
		deps.FallbackItems = make([]dataset.ItemID, n)
		for k, pos := range r.FallbackPos {
			if pos < 0 || int(pos) >= len(pool) {
				return cf.RowDeps{}, false
			}
			deps.FallbackItems[k] = pool[pos]
		}
	}
	return deps, true
}

// ShardBackend is the worker process's side of the data plane: a full
// replica world serving the per-shard operations for the shards this
// worker owns, behind the remote.Backend interface cmd/greca-shard
// plugs into remote.NewServer.
type ShardBackend struct {
	w     *World
	owned []int
}

// NewShardBackend wraps w as the backend for the given owned shards.
// Shard indexes must be valid for the world and free of duplicates.
func NewShardBackend(w *World, owned []int) (*ShardBackend, error) {
	if len(owned) == 0 {
		return nil, fmt.Errorf("repro: shard backend owns no shards")
	}
	seen := make(map[int]bool, len(owned))
	for _, sh := range owned {
		if sh < 0 || sh >= w.Shards() {
			return nil, fmt.Errorf("repro: owned shard %d outside [0,%d)", sh, w.Shards())
		}
		if seen[sh] {
			return nil, fmt.Errorf("repro: shard %d owned twice", sh)
		}
		seen[sh] = true
	}
	return &ShardBackend{w: w, owned: append([]int(nil), owned...)}, nil
}

// Fingerprint implements remote.Backend.
func (b *ShardBackend) Fingerprint() uint64 { return b.w.ConfigFingerprint() }

// Shards implements remote.Backend.
func (b *ShardBackend) Shards() int { return b.w.Shards() }

// Owned implements remote.Backend.
func (b *ShardBackend) Owned() []int { return append([]int(nil), b.owned...) }

// ViewScoresDeps implements remote.Backend: u's pool-order normalized
// view scores plus the dependency metadata the build recorded — which
// pool positions fell to the mean-fallback ladder — so the router's
// list store can apply the same scoped-invalidation verdicts the
// worker's own would. The view is served from the sorted-list store,
// materializing and caching it exactly like local traffic would. (A
// router only asks for views when its own store is enabled, and whether
// it is — ListStoreSize >= 0, not the capacity — is part of the
// handshake fingerprint, so the store is enabled here whenever this is
// called.)
func (b *ShardBackend) ViewScoresDeps(u dataset.UserID) ([]float64, cf.RowDeps, bool, error) {
	if b.w.lists == nil {
		return nil, cf.RowDeps{}, false, fmt.Errorf("repro: view requested from a worker without a list store")
	}
	v, err := b.w.lists.Acquire(u)
	if err != nil {
		return nil, cf.RowDeps{}, false, err
	}
	return v.Scores, v.Deps, v.DepsKnown, nil
}

// PredictBatch implements remote.Backend: raw (1..5 scale)
// predictions from the worker's source, exactly the values the
// router's own would produce.
func (b *ShardBackend) PredictBatch(u dataset.UserID, items []dataset.ItemID) ([]float64, error) {
	return b.w.source.PredictBatch(u, items), nil
}

// Apply implements remote.Backend: ingest one fanned-out rating into
// the replica — the full AddRating path, scoped invalidation included
// — and ack with the replica's delta counters plus the invalidation
// outcome: whether the replica swept scoped, and if so which of its
// cached users went stale. The router merges the relayed verdicts
// into its own to sweep its list store — the views it holds were
// built here, against this replica's caches, so this replica's stale
// set (not the router's idle one) is the authoritative reach of the
// ingest. Rejections unwrap to the dataset sentinels, which the
// transport relays by code.
func (b *ShardBackend) Apply(r dataset.Rating) (remote.ApplyAck, error) {
	out, err := b.w.addRating(r)
	if err != nil {
		return remote.ApplyAck{}, err
	}
	ds := b.w.IngestStats()
	ack := remote.ApplyAck{
		Pending: ds.Pending,
		Applied: ds.Applied,
		Folds:   ds.Folds,
		Folded:  ds.Folded,
		Scoped:  out.scoped,
	}
	if out.scoped && len(out.stale) > 0 {
		ack.Stale = make([]dataset.UserID, 0, len(out.stale))
		for u := range out.stale {
			ack.Stale = append(ack.Stale, u)
		}
		sort.Slice(ack.Stale, func(i, j int) bool { return ack.Stale[i] < ack.Stale[j] })
	}
	return ack, nil
}

// InvalidateUser implements remote.Backend.
func (b *ShardBackend) InvalidateUser(u dataset.UserID) bool {
	return b.w.InvalidateUserViews(u)
}

// ShardStats implements remote.Backend: the owned shards' slices of
// the replica's cache counters, in owned order.
func (b *ShardBackend) ShardStats() []remote.ShardStats {
	per := b.w.CacheStats().PerShard
	out := make([]remote.ShardStats, 0, len(b.owned))
	for _, sh := range b.owned {
		ps := per[sh]
		out = append(out, remote.ShardStats{
			Shard:         sh,
			ListStore:     ps.ListStore,
			Neighborhoods: ps.Neighborhoods,
		})
	}
	return out
}
