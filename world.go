package repro

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/affinity"
	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/groups"
	"repro/internal/liststore"
	"repro/internal/remote"
	"repro/internal/shard"
	"repro/internal/social"
)

// Config assembles a World. Zero values are filled with defaults; use
// QuickConfig or PaperConfig for ready-made setups.
type Config struct {
	// Dataset configures the synthetic rating generator. Ignored when
	// RatingsReader is set.
	Dataset dataset.SynthConfig
	// RatingsReader, when non-nil, loads ratings in the MovieLens
	// "UserID::MovieID::Rating::Timestamp" format instead of
	// generating them.
	RatingsReader io.Reader
	// FriendshipsReader and PageLikesReader, when both non-nil, load
	// the social network from the CSV formats datagen emits
	// (user_a,user_b and user,category,timestamp) instead of
	// generating it. Social.Users still sets the population size and
	// Social.Start/End the observation window. A loaded network has no
	// latent ground truth, so the quality study requires a generated
	// one.
	FriendshipsReader io.Reader
	PageLikesReader   io.Reader
	// Social configures the synthetic social network. Its Users count
	// is the participant population (the paper recruited 72); these
	// are mapped onto the first rating-store users.
	Social social.SynthConfig
	// Neighbors is the CF neighborhood size (cf.DefaultNeighbors if 0).
	Neighbors int
	// Similarity selects the user-user similarity for CF neighborhoods
	// (cosine, the paper's §4 choice, by default).
	Similarity cf.Similarity
	// ItemBasedCF switches absolute preferences to the item-based
	// predictor. The paper's formulation is agnostic to the apref
	// source ("existing single-user recommendation algorithms ... could
	// be used"); this exercises that claim.
	ItemBasedCF bool
	// TimeWeightedCF applies the related-work temporal baseline ([8],
	// Ding & Li's time-weight CF) to the user-based predictor: neighbor
	// ratings decay exponentially with age. Mutually exclusive with
	// ItemBasedCF.
	TimeWeightedCF bool
	// CFHalfLife is the rating-age half-life in seconds for
	// TimeWeightedCF (cf.DefaultHalfLife if 0).
	CFHalfLife int64
	// Granularity segments the observation window into affinity
	// periods; the paper settles on two-month periods (Figure 4).
	Granularity affinity.Granularity
	// InitialPeriods, when positive and smaller than the window's
	// period count, builds the affinity model over only the first N
	// periods; the rest arrive later via AppendNextPeriod. This is the
	// paper's index-maintenance scenario ("as affinity between users
	// evolves over time, GRECA does not need to recalculate any of the
	// previously calculated affinities and just augments the index").
	InitialPeriods int
	// AssemblyWorkers bounds the per-call goroutines used to fill a
	// group's preference rows during problem assembly (GOMAXPROCS if
	// 0, 1 forces fully sequential assembly).
	AssemblyWorkers int
	// ListStoreSize bounds the sorted-list store's materialized
	// per-user preference views (liststore.DefaultMaxUsers if 0,
	// negative disables the store: every problem then re-sorts its
	// lists in core.NewProblem).
	ListStoreSize int
	// Shards partitions every per-user data structure — rating rows
	// and rated-item bitsets, the predictors' neighborhood caches, the
	// sorted-list store, and the affinity model's pair tables — N ways
	// by hashing on UserID (0 or 1 keeps today's single-shard layout,
	// bit-identically; negative is an error). Sharding only changes
	// where state lives and which locks traffic takes, never any
	// computed value, so recommendations are identical for every shard
	// count. The ListStoreSize budget is split across the shards.
	Shards int
	// RemoteViewCache bounds how many views fetched from shard workers
	// the router's list store retains in distributed mode
	// (AttachRemote): a group assembly whose members' views are
	// resident skips the wire entirely, and a rating ingest drops them
	// all, like any list store's — so a retained view is always
	// bit-identical to a fresh worker fetch.
	// 0 (the default) and negative retain nothing: every assembly
	// fetches. It is router-only state, excluded from the config
	// fingerprint, and irrelevant in-process.
	RemoteViewCache int
	// snapshotRatings, when set by the persistence layer (OpenWorld),
	// rebuilds the rating store from a snapshot's canonical dump
	// instead of reading RatingsReader or generating synthetically.
	snapshotRatings []dataset.Rating
}

// QuickConfig is a small, fast setup for examples and tests: a
// laptop-scale synthetic rating store and the 72-participant study
// network with two-month periods.
func QuickConfig() Config {
	ds := dataset.DefaultSynthConfig()
	ds.Users = 300
	ds.TargetRatings = 30_000
	ds.Items = 1200
	return Config{
		Dataset:     ds,
		Social:      social.DefaultSynthConfig(),
		Granularity: affinity.TwoMonth,
	}
}

// PaperConfig mirrors the paper's evaluation scale: a MovieLens-1M
// shaped rating store (Table 5) with the 72-participant study network.
func PaperConfig() Config {
	return Config{
		Dataset:     dataset.MovieLens1MConfig(),
		Social:      social.DefaultSynthConfig(),
		Granularity: affinity.TwoMonth,
	}
}

// World is the assembled reproduction substrate. It is safe for
// concurrent Recommend calls (each call builds its own problem
// instance; the underlying CF caches are internally synchronized), and
// mutates only through two serialized write paths: AddRating ingests
// live ratings into the store's delta overlay, and AppendNextPeriod
// extends the affinity index — both safe to run while serving.
type World struct {
	ratings *dataset.Store
	synth   *dataset.Synth // nil when ratings were loaded from disk
	// network holds the generated network's latent structure; nil when
	// the network was loaded from CSV.
	network *social.SynthNetwork
	// socialNet is the observable network (always set).
	socialNet *social.Network
	pred      *cf.Predictor
	// itemPred is the alternative apref source (ItemBasedCF mode).
	itemPred *cf.ItemPredictor
	// twPred is the time-weighted apref source (TimeWeightedCF mode).
	twPred *cf.TimeWeightedPredictor
	// source is the active absolute-preference source: the configured
	// predictor.
	source cf.Source
	// lists is the precomputed sorted-list store over the popularity
	// pool; nil when Config.ListStoreSize disabled it. In-process its
	// views are built from source; AttachRemote swaps it for a store
	// that fetches them from the owning workers.
	lists *liststore.Store
	// asm is the assembly layer filling preference matrices from
	// source with a bounded worker pool.
	asm      *engine.Assembler
	model    *affinity.Model
	timeline affinity.Timeline
	cfg      Config
	// pending are the not-yet-indexed periods of the full window
	// (index-maintenance mode; empty otherwise).
	pending []affinity.Period
	// participants are the users present in both the rating store and
	// the social network (the study population).
	participants []dataset.UserID
	// sm is the user-range partitioning every per-user structure
	// routes through (shard.Single when Config.Shards <= 1).
	sm shard.Map
	// periodMu guards the index-maintenance state — pending, timeline,
	// and the affinity model's per-period tables — so AppendNextPeriod
	// can extend the index while requests resolve periods and read
	// drifts (readers take it shared; see buildProblem).
	periodMu sync.RWMutex
	// ingestMu serializes the rating write path (AddRating, ReFreeze):
	// one ingest at a time keeps the store mutation and the cache
	// invalidations it triggers a single atomic event from any other
	// writer's point of view. Readers never take it.
	ingestMu sync.Mutex
	// wal, when set, is notified of every applied rating for
	// durability; see SetRatingLog.
	wal RatingLog
	// remote, when set by AttachRemote, is the multi-process worker
	// fleet serving the per-user data plane; AddRating fans ingest out
	// to every replica and CacheStats reports the workers' counters.
	remote *remote.ShardSet
	// remoteApplySeq stamps each fanned-out rating with a contiguous
	// global sequence (guarded by ingestMu) so worker replicas can
	// deduplicate redeliveries and detect missed writes. Starts at 0
	// in every process: router and workers must boot from identical
	// rating state.
	remoteApplySeq uint64
	// remoteFanoutMisses counts ingests whose owning worker missed
	// the fanned-out write and was fenced.
	remoteFanoutMisses atomic.Uint64
	// dropAllNeighborhoods swaps the predictors' scoped ingest hooks for
	// their drop-everything counterparts. No configuration sets it: it
	// is the reference scheme the scoped one is differentially tested
	// and benchmarked against (export_test.go).
	dropAllNeighborhoods bool
}

// NewWorld builds every substrate: ratings (loaded or generated), the
// social network, the CF predictor, and the temporal affinity model
// over the configured granularity.
func NewWorld(cfg Config) (*World, error) {
	w := &World{cfg: cfg}

	// User-range partitioning: every per-user structure below routes
	// through this one map, so a user's rating rows, views, and pair
	// entries all live on the same shard.
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("repro: negative Shards %d", cfg.Shards)
	}
	nShards := cfg.Shards
	if nShards == 0 {
		nShards = 1
	}
	sm, err := shard.New(nShards)
	if err != nil {
		return nil, fmt.Errorf("repro: building shard map: %w", err)
	}
	w.sm = sm

	scfg := cfg.Social
	if scfg.Users == 0 {
		scfg = social.DefaultSynthConfig()
	}

	if cfg.snapshotRatings != nil {
		store, err := dataset.FromRatings(cfg.snapshotRatings)
		if err != nil {
			return nil, fmt.Errorf("repro: rebuilding ratings from snapshot: %w", err)
		}
		w.ratings = store
	} else if cfg.RatingsReader != nil {
		store, err := dataset.LoadMovieLensRatings(cfg.RatingsReader)
		if err != nil {
			return nil, fmt.Errorf("repro: loading ratings: %w", err)
		}
		w.ratings = store
	} else {
		dcfg := cfg.Dataset
		if dcfg.Users == 0 {
			dcfg = dataset.DefaultSynthConfig()
		}
		if dcfg.ParticipantUsers == 0 {
			// Study participants rate ~30-60 movies drawn from a
			// shared 75-item pool, like the paper's recruits who
			// rated the pre-computed popular/diversity movie sets.
			dcfg.ParticipantUsers = scfg.Users
			dcfg.ParticipantMinRatings = 30
			dcfg.ParticipantMaxRatings = 60
			dcfg.ParticipantPoolSize = 75
			dcfg.ParticipantExtraMean = 100
		}
		sy, err := dataset.Generate(dcfg)
		if err != nil {
			return nil, fmt.Errorf("repro: generating ratings: %w", err)
		}
		w.synth = sy
		w.ratings = sy.Store
	}
	// The loaders freeze stores 1-way; re-partition the per-user
	// arenas under the world's map (already the right layout when the
	// world itself is 1-way).
	if w.sm.N() > 1 {
		w.ratings.Reshard(w.sm)
	}
	if nUsers := len(w.ratings.Users()); scfg.Users > nUsers {
		return nil, fmt.Errorf("repro: social population %d exceeds rating users %d", scfg.Users, nUsers)
	}
	if (cfg.FriendshipsReader == nil) != (cfg.PageLikesReader == nil) {
		return nil, fmt.Errorf("repro: FriendshipsReader and PageLikesReader must be set together")
	}
	if cfg.FriendshipsReader != nil {
		nw, err := social.LoadNetwork(scfg.Users, cfg.FriendshipsReader, cfg.PageLikesReader)
		if err != nil {
			return nil, fmt.Errorf("repro: loading social network: %w", err)
		}
		w.socialNet = nw
	} else {
		net, err := social.GenerateNetwork(scfg)
		if err != nil {
			return nil, fmt.Errorf("repro: generating social network: %w", err)
		}
		w.network = net
		w.socialNet = net.Network
	}

	pred, err := cf.NewPredictorSim(w.ratings, cfg.Neighbors, cfg.Similarity)
	if err != nil {
		return nil, fmt.Errorf("repro: building CF predictor: %w", err)
	}
	pred.SetSharding(w.sm)
	w.pred = pred
	if cfg.ItemBasedCF && cfg.TimeWeightedCF {
		return nil, fmt.Errorf("repro: ItemBasedCF and TimeWeightedCF are mutually exclusive")
	}
	if cfg.ItemBasedCF {
		ip, err := cf.NewItemPredictor(w.ratings, cfg.Neighbors)
		if err != nil {
			return nil, fmt.Errorf("repro: building item-based predictor: %w", err)
		}
		ip.SetSharding(w.sm)
		w.itemPred = ip
	}
	if cfg.TimeWeightedCF {
		tw, err := cf.NewTimeWeightedPredictor(pred, cfg.CFHalfLife)
		if err != nil {
			return nil, fmt.Errorf("repro: building time-weighted predictor: %w", err)
		}
		w.twPred = tw
	}

	// Preference layer: the active predictor behind the Source
	// interface.
	w.source = w.pred
	switch {
	case w.itemPred != nil:
		w.source = w.itemPred
	case w.twPred != nil:
		w.source = w.twPred
	}
	w.asm = engine.New(w.source, cfg.AssemblyWorkers)

	// Sorted-list store: built at load over the frozen popularity
	// ranking (views materialize lazily per user, bounded by a CLOCK
	// policy). The World owns the store lifecycle — every rating ingest
	// empties it (AddRating) so stale views are rebuilt.
	if cfg.ListStoreSize >= 0 {
		size := cfg.ListStoreSize
		if size == 0 {
			size = liststore.DefaultMaxUsers
		}
		pool := w.ratings.PopularityRanked()
		build := liststore.LocalBuilder(w.source, pool, prefDivisor, w.asm.Workers())
		w.lists = liststore.NewOver(build, pool, size, prefDivisor, w.sm)
		if w.lists != nil {
			w.asm.AttachListStore(w.lists)
		}
	}

	// Participants: social users 0..Users-1 mapped onto the rating
	// store's first users (both populations use dense IDs from 0).
	allUsers := w.ratings.Users()
	w.participants = make([]dataset.UserID, scfg.Users)
	copy(w.participants, allUsers[:scfg.Users])

	full := affinity.Segment(scfg.Start, scfg.End, cfg.Granularity)
	w.timeline = full
	if n := cfg.InitialPeriods; n > 0 && n < full.NumPeriods() {
		w.timeline = affinity.Timeline{
			Start:   full.Start,
			End:     full.Periods[n-1].End,
			Periods: append([]affinity.Period(nil), full.Periods[:n]...),
		}
		w.pending = append([]affinity.Period(nil), full.Periods[n:]...)
	}
	src := affinity.NetworkSource{Network: w.socialNet}
	model, err := affinity.BuildModelSharded(w.participants, w.timeline, src, src, w.sm)
	if err != nil {
		return nil, fmt.Errorf("repro: building affinity model: %w", err)
	}
	w.model = model
	return w, nil
}

// AppendNextPeriod indexes the next pending period of the observation
// window (index-maintenance mode; see Config.InitialPeriods). Only the
// new period's affinities are computed — everything previously indexed
// is untouched. It returns false when no periods remain. Safe to call
// while requests are being served, and from multiple goroutines: the
// period lock serializes appends against each other and against
// readers of the timeline and the model's period tables.
func (w *World) AppendNextPeriod() (bool, error) {
	w.periodMu.Lock()
	defer w.periodMu.Unlock()
	if len(w.pending) == 0 {
		return false, nil
	}
	p := w.pending[0]
	if err := w.model.AppendPeriod(p); err != nil {
		return false, fmt.Errorf("repro: appending period: %w", err)
	}
	w.pending = w.pending[1:]
	w.timeline = w.model.Timeline
	return true, nil
}

// PendingPeriods returns how many window periods are not yet indexed.
func (w *World) PendingPeriods() int {
	w.periodMu.RLock()
	defer w.periodMu.RUnlock()
	return len(w.pending)
}

// Ratings returns the frozen rating store.
func (w *World) Ratings() *dataset.Store { return w.ratings }

// SynthRatings returns the synthetic-generation latent structure, or
// nil when ratings were loaded from a file.
func (w *World) SynthRatings() *dataset.Synth { return w.synth }

// Network returns the generated social network with its latent
// structure, or nil when the network was loaded from CSV.
func (w *World) Network() *social.SynthNetwork { return w.network }

// SocialNetwork returns the observable social network (friendships and
// page-likes), whether generated or loaded.
func (w *World) SocialNetwork() *social.Network { return w.socialNet }

// Predictor returns the collaborative filtering predictor.
func (w *World) Predictor() *cf.Predictor { return w.pred }

// Source returns the active absolute-preference source — the
// configured predictor behind the cf.Source interface.
func (w *World) Source() cf.Source { return w.source }

// ListStore returns the sorted-list store, or nil when
// Config.ListStoreSize disabled it.
func (w *World) ListStore() *liststore.Store { return w.lists }

// Shards returns the world's shard count (1 when unsharded).
func (w *World) Shards() int { return w.sm.N() }

// ShardOf returns the shard index holding u's per-user state — the
// routing every layer of the world agrees on (rating arena,
// sorted-list view, and the pair tables of pairs where u is the lower
// member).
func (w *World) ShardOf(u dataset.UserID) int { return w.sm.Of(int64(u)) }

// Sharding returns the world's shard map.
func (w *World) Sharding() shard.Map { return w.sm }

// RatingLog is the durability hook of the rating write path: AddRating
// notifies it after every successfully applied rating, so appended
// records replayed in order reproduce the live state exactly. The
// persistence layer's write-ahead log implements it; see OpenWorld.
type RatingLog interface {
	Append(r dataset.Rating) error
}

// SetRatingLog attaches the durability hook. Call before serving
// traffic; a nil log detaches it.
func (w *World) SetRatingLog(l RatingLog) {
	w.ingestMu.Lock()
	defer w.ingestMu.Unlock()
	w.wal = l
}

// AddRating ingests one rating into the live world: the rating lands
// in the store's delta overlay (visible to every read path
// immediately, bit-identically to a cold rebuild over the extended
// dataset), every derived structure is invalidated coherently, and the
// attached rating log — if any — journals it for crash recovery.
//
// Rejections (unfrozen store, out-of-range value, unknown user or
// item) leave the world untouched and unwrap to the dataset package's
// typed errors (dataset.ErrBadValue, dataset.ErrUnknownUser,
// dataset.ErrUnknownItem).
//
// Coherence: one rating by user u shifts u's vector and therefore
// sim(v, u) — but only for the users v that share an item with u. The
// ingest exploits that where a rebuild is expensive, the neighborhood
// cache: every cached neighborhood carries its owner's co-rater bitset,
// the ones with u's bit set get a one-similarity recheck, run one after
// another on the ingesting goroutine, and only the neighborhoods the
// rating actually reaches are dropped (epoch-fenced against in-flight
// fills re-installing pre-ingest results). The sorted
// views above them all drop: every rating shifts a fallback mean, no
// measured workload re-reads a view between two ratings, and a view
// rebuilt over retained neighborhoods costs one batch prediction.
// Everything served afterwards is bit-identical to a cold rebuild.
func (w *World) AddRating(r dataset.Rating) error {
	w.ingestMu.Lock()
	defer w.ingestMu.Unlock()
	if err := w.applyRating(r); err != nil {
		return err
	}
	var journalErr error
	if w.wal != nil {
		journalErr = w.wal.Append(r)
	}
	// Distributed mode: fan the rating out to every worker replica,
	// still inside the ingest lock so every process applies ratings in
	// the same global order (apply order is the fold order, and fold
	// order is what makes replicas bit-identical). Every replica needs
	// every rating — a user-based neighborhood reads all users'
	// vectors, so no shard's state is independent of the ingest — and it
	// needs it whether or not the journal took it: the rating is in this
	// process's store either way, and a skipped fan-out would leave the
	// router one rating ahead of every worker with a contiguous sequence
	// that never shows it. Deliveries are sequence-stamped, retried with
	// dedup at the worker, and any worker that still misses the write is
	// fenced by the set — its shards answer 503 to reads instead of
	// serving a diverged replica. A missed delivery never fails the
	// ingest: the rating is already applied here and on every live
	// replica, so failing the request would invite a retry that
	// double-counts it in every process that applied it. A missed owner
	// surfaces at read time, on its fenced shards.
	if w.remote != nil {
		w.remoteApplySeq++
		if _, ferr := w.remote.Apply(w.remoteApplySeq, r); ferr != nil {
			w.remoteFanoutMisses.Add(1)
		}
	}
	// Last, once the rating is applied everywhere it is going to be:
	// drop every sorted view. Builds in flight need no extra fence — a
	// view still mid-build when the sweep passes is unlinked by it (see
	// liststore.AcquireMulti), and one started afterwards reads
	// post-ingest state wherever it is built.
	if w.lists != nil {
		w.lists.InvalidateAll()
	}
	if journalErr != nil {
		return fmt.Errorf("repro: rating applied but not journaled: %w", journalErr)
	}
	return nil
}

// RemoteFanoutMisses counts distributed ingests whose owning worker
// missed the fanned-out write (and was fenced). Zero in-process.
func (w *World) RemoteFanoutMisses() uint64 { return w.remoteFanoutMisses.Load() }

// applyRating lands r in the store and makes the predictors coherent
// with it. Caller holds ingestMu.
func (w *World) applyRating(r dataset.Rating) error {
	if err := w.ratings.Apply(r); err != nil {
		return fmt.Errorf("repro: applying rating: %w", err)
	}
	// Store first, then predictors (their recomputed means must see the
	// new rating). The user-based predictor updates in every mode — it
	// backs the default and time-weighted apref sources and serves
	// similarity queries (group formation) whichever source is active.
	if w.dropAllNeighborhoods {
		w.pred.NoteIngest(r.User)
		if w.itemPred != nil {
			w.itemPred.NoteIngest()
		}
	} else {
		w.pred.NoteIngestScoped(r.User, r.Item)
		if w.itemPred != nil {
			w.itemPred.NoteIngestScoped(r.User)
		}
	}
	if w.twPred != nil {
		w.twPred.Advance(r.Time)
	}
	return nil
}

// ReFreeze folds the store's pending rating deltas into new frozen
// arenas, returning how many were folded. Reads before, during, and
// after observe identical values (the overlay and the folded state are
// bit-identical), so no cache invalidation accompanies the fold — it
// only moves data out of the overlay's locked maps and back onto the
// lock-free fast path. Serve loops call it periodically; the snapshot
// path calls it before persisting.
func (w *World) ReFreeze() int {
	w.ingestMu.Lock()
	defer w.ingestMu.Unlock()
	return w.ratings.ReFreeze()
}

// IngestStats snapshots the live-ingest counters: ratings applied
// since start, deltas currently pending in the overlay, folds run, and
// ratings folded.
func (w *World) IngestStats() dataset.DeltaStats { return w.ratings.DeltaStats() }

// InvalidateUserViews drops u's materialized sorted-preference view,
// so u's next request re-predicts and rebuilds rather than reading a
// stale view. It reports whether a view was actually dropped; with the
// list store disabled (or empty of u) it returns false.
//
// The call is shard-aware: the drop routes through the world's shard
// map and locks only u's shard — the list-store sub-store of
// ShardOf(u) — so an invalidation storm against one shard never blocks
// requests serving entirely from the others.
//
// Scope: this invalidates *this user's* derived state only — the
// right tool when a single user's view is suspect (tests, targeted
// cache management), and this process's copy only: on a router it does
// not reach the owning worker. It is NOT the rating-ingest hook: ingest
// changes sim(v, u) for every other user v, so the predictors'
// neighborhood caches and every other user's views go stale too.
// AddRating performs that global drop; use it for anything that changes
// ratings.
func (w *World) InvalidateUserViews(u dataset.UserID) bool {
	return w.lists != nil && w.lists.Invalidate(u)
}

// RemoteStats is the distributed transport's observability surface
// for /v1/stats: the shard-set's wire counters plus the router list
// store's view traffic. Zero-valued in-process (the serving layer
// reports the section only when a fleet is attached).
type RemoteStats struct {
	// Attached reports whether a worker fleet is attached at all.
	Attached bool `json:"attached"`
	// Transport counts the shard-set's wire traffic: calls by op, the
	// batched reads among them, retries, breaker opens, dials vs
	// connection reuses.
	Transport remote.TransportStats `json:"transport"`
	// ViewCacheEnabled reports whether the router retains fetched views
	// (Config.RemoteViewCache > 0); ViewCache counts its list store's
	// traffic either way.
	ViewCacheEnabled bool           `json:"view_cache_enabled"`
	ViewCache        ViewCacheStats `json:"view_cache"`
}

// ViewCacheStats is the router list store seen as a cache of worker
// views: Hits are assemblies' member views served from the store,
// Misses the ones fetched over the wire; the lifecycle counters are the
// store's own (see liststore.Stats).
type ViewCacheStats struct {
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
	Size          int    `json:"size"`
	Capacity      int    `json:"capacity"`
}

// RemoteStats snapshots the distributed transport counters. The
// in-process world reports Attached false with every counter (and
// every calls_by_op key) present at zero, so the JSON shape is
// identical whether or not a fleet is attached.
func (w *World) RemoteStats() RemoteStats {
	if w.remote == nil {
		return RemoteStats{Transport: remote.EmptyTransportStats()}
	}
	st := RemoteStats{Attached: true, Transport: w.remote.TransportStats()}
	if w.lists != nil {
		ls := w.lists.Stats()
		st.ViewCacheEnabled = w.cfg.RemoteViewCache > 0
		st.ViewCache = ViewCacheStats{
			Hits:          ls.ViewHits,
			Misses:        ls.ViewBuilds,
			Invalidations: ls.Invalidations,
			Evictions:     ls.Evictions,
			Size:          ls.Size,
			Capacity:      max(w.cfg.RemoteViewCache, 0),
		}
	}
	return st
}

// CacheStats aggregates the engine's cache counters — the sorted-list
// store and the active predictor's lazy neighborhood cache — for the
// serving layer's /stats endpoint and any other observability
// consumer. The aggregate fields are exactly the sums of the PerShard
// breakdown (the counters are per-shard at the source; the aggregate is
// computed from them).
type CacheStats struct {
	// ListStoreEnabled reports whether the sorted-list store is on
	// (Config.ListStoreSize >= 0). ListStore is zero when it is not.
	ListStoreEnabled bool `json:"list_store_enabled"`
	// ListStore counts the sorted-list store's view, patch, and
	// lifecycle traffic.
	ListStore liststore.Stats `json:"list_store"`
	// Neighborhoods counts the active predictor's lazy neighborhood
	// cache (user neighborhoods for the user-based and time-weighted
	// predictors, item neighborhoods for the item-based one).
	Neighborhoods cf.CacheStats `json:"neighborhoods"`
	// Shards is the world's shard count; PerShard breaks every cache's
	// counters down by shard (one entry per shard, in shard order).
	Shards   int               `json:"shards"`
	PerShard []ShardCacheStats `json:"per_shard"`
}

// ShardCacheStats is one shard's slice of the cache counters: the
// shard's list-store sub-store and neighborhood-cache instance. A
// disabled store reports zero values, mirroring the aggregate struct's
// convention.
type ShardCacheStats struct {
	Shard         int                  `json:"shard"`
	ListStore     liststore.ShardStats `json:"list_store"`
	Neighborhoods cf.CacheStats        `json:"neighborhoods"`
}

// CacheStats snapshots the engine's cache counters, aggregated and
// per shard. Safe for concurrent use with recommendation traffic; the
// counters are atomic and only eventually consistent with each other.
// Every aggregate is derived from the same per-shard snapshot the
// PerShard breakdown reports, so the two levels sum exactly even
// mid-flight.
func (w *World) CacheStats() CacheStats {
	st := CacheStats{Shards: w.sm.N()}
	st.PerShard = make([]ShardCacheStats, st.Shards)
	for i := range st.PerShard {
		st.PerShard[i].Shard = i
	}
	if w.lists != nil {
		st.ListStoreEnabled = true
		for i, s := range w.lists.StatsByShard() {
			st.PerShard[i].ListStore = s
		}
	}
	var nbhd cf.ShardStatsSource
	switch {
	case w.itemPred != nil:
		nbhd = w.itemPred
	case w.twPred != nil:
		nbhd = w.twPred
	default:
		nbhd = w.pred
	}
	for i, s := range nbhd.StatsByShard() {
		st.PerShard[i].Neighborhoods = s
	}
	// Distributed mode: each shard's hot state lives on its owning
	// worker, so the workers' counters replace the router's idle local
	// ones shard by shard. An unreachable worker leaves zero-valued
	// entries for its shards — degraded, not absent, so the response
	// shape is identical to the in-process world's.
	if w.remote != nil {
		rs, ok, _ := w.remote.StatsByShard()
		for i := range st.PerShard {
			if ok[i] {
				st.PerShard[i].ListStore = rs[i].ListStore
				st.PerShard[i].Neighborhoods = rs[i].Neighborhoods
			} else {
				st.PerShard[i].ListStore = liststore.ShardStats{}
				st.PerShard[i].Neighborhoods = cf.CacheStats{}
			}
		}
	}
	if w.lists != nil {
		// One per-shard snapshot feeds both levels: the breakdown
		// reports it and the aggregate is derived from it, so the sums
		// match exactly even mid-flight (and across processes).
		parts := make([]liststore.ShardStats, len(st.PerShard))
		for i, ps := range st.PerShard {
			parts[i] = ps.ListStore
		}
		st.ListStore = w.lists.StatsFrom(parts)
	}
	// Aggregates are the sums of the per-shard snapshots, so the two
	// levels can never disagree.
	for _, ps := range st.PerShard {
		st.Neighborhoods.Hits += ps.Neighborhoods.Hits
		st.Neighborhoods.Misses += ps.Neighborhoods.Misses
		st.Neighborhoods.Size += ps.Neighborhoods.Size
		st.Neighborhoods.Invalidated += ps.Neighborhoods.Invalidated
		st.Neighborhoods.Retained += ps.Neighborhoods.Retained
	}
	return st
}

// AffinityModel returns the temporal affinity model.
func (w *World) AffinityModel() *affinity.Model { return w.model }

// Timeline returns the period segmentation.
func (w *World) Timeline() affinity.Timeline {
	w.periodMu.RLock()
	defer w.periodMu.RUnlock()
	return w.timeline
}

// Participants returns the study population (users with both ratings
// and social presence). Callers must not modify the slice.
func (w *World) Participants() []dataset.UserID { return w.participants }

// Former returns a group former over the participant pool, seeded
// deterministically by seed.
func (w *World) Former(seed int64) *groups.Former {
	return groups.NewFormer(w.pred, w.model, rand.New(rand.NewSource(seed)))
}
