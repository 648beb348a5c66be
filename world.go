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
// QuickConfig for a ready-made setup.
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
	// Neighbors is the neighborhood size of the user-based CF predictor
	// (cosine similarity, the paper's §4 choice) that supplies absolute
	// preferences (cf.DefaultNeighbors if 0).
	Neighbors int
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
	// ListStoreSize bounds the sorted-list store's materialized
	// per-user preference views (liststore.DefaultMaxUsers if 0;
	// negative is an error). Every world has the store. On a
	// distributed router (AttachRemote) the same store keeps the views
	// it fetches from the workers. The capacity is not in the config
	// fingerprint, so a router may size its store differently from its
	// workers.
	ListStoreSize int
	// Shards is the number of shards users are routed onto by hashing
	// on UserID (0 means 1; negative is an error). A shard decides which
	// worker process serves a user in a distributed deployment
	// (AttachRemote, cmd/greca-shard) and nothing else: in-process every
	// structure is one structure whatever the count, and
	// recommendations are identical for every shard count.
	Shards int
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

// World is the assembled reproduction substrate. It is safe for
// concurrent Recommend calls (each call builds its own problem
// instance; the underlying CF caches are internally synchronized), and
// mutates only through two serialized write paths: AddRating ingests
// live ratings into the store, and AppendNextPeriod
// extends the affinity index — both safe to run while serving.
type World struct {
	ratings *dataset.Store
	synth   *dataset.Synth // nil when ratings were loaded from disk
	// network holds the generated network's latent structure; nil when
	// the network was loaded from CSV.
	network *social.SynthNetwork
	// socialNet is the observable network (always set).
	socialNet *social.Network
	// pred is the absolute-preference source: the user-based cosine CF
	// predictor.
	pred *cf.Predictor
	// lists is the precomputed sorted-list store over the popularity
	// pool. In-process its views are built from pred; AttachRemote
	// points it at a builder that fetches them from the owning workers.
	lists *liststore.Store
	// asm is the assembly layer building each request's problem from
	// pred and lists.
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
	// sm routes users onto shards — the workers of a distributed
	// deployment.
	sm *shard.Map
	// periodMu guards the index-maintenance state — pending, timeline,
	// and the affinity model's per-period tables — so AppendNextPeriod
	// can extend the index while requests resolve periods and read
	// drifts (readers take it shared; see buildProblem).
	periodMu sync.RWMutex
	// ingestMu serializes the rating write path (AddRating, snapshots):
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
	// dropAllNeighborhoods swaps the predictor's scoped ingest hook for
	// its drop-everything counterpart. No configuration sets it: it
	// is the reference scheme the scoped one is differentially tested
	// and benchmarked against (export_test.go).
	dropAllNeighborhoods bool
}

// NewWorld builds every substrate: ratings (loaded or generated), the
// social network, the CF predictor, and the temporal affinity model
// over the configured granularity.
func NewWorld(cfg Config) (*World, error) {
	w := &World{cfg: cfg}
	// The snapshot's rating log is read once, below; the world keeps the
	// store FromRatings builds from it, not the log.
	w.cfg.snapshotRatings = nil

	// Routing: the one map the router and the workers agree on.
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("repro: negative Shards %d", cfg.Shards)
	}
	if cfg.ListStoreSize < 0 {
		return nil, fmt.Errorf("repro: negative ListStoreSize %d", cfg.ListStoreSize)
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

	pred, err := cf.NewPredictor(w.ratings, cfg.Neighbors)
	if err != nil {
		return nil, fmt.Errorf("repro: building CF predictor: %w", err)
	}
	w.pred = pred

	// Sorted-list store: built at load over the store's popularity
	// ranking (views materialize lazily per user, bounded by a CLOCK
	// policy). The World owns the store lifecycle — every rating ingest
	// empties it (AddRating) so stale views are rebuilt.
	pool := w.ratings.PopularityRanked()
	w.lists = liststore.NewOver(engine.LocalBuilder(w.pred, pool), pool, cfg.ListStoreSize)
	w.asm = engine.New(w.pred, w.lists)

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
	model, err := affinity.BuildModel(w.participants, w.timeline, src, src)
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

// Ratings returns the rating store.
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

// Shards returns the world's shard count (1 when unsharded).
func (w *World) Shards() int { return w.sm.N() }

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

// AddRating ingests one rating into the live world: the rating is
// folded into the store's rater list and user row (visible to every
// read path immediately, bit-identically to a cold rebuild over the
// extended dataset), every derived structure is invalidated
// coherently, and the attached rating log — if any — journals it for
// crash recovery.
//
// Rejections (out-of-range value, unknown user or item) leave the
// world untouched and unwrap to the dataset package's typed errors
// (dataset.ErrBadValue, dataset.ErrUnknownUser, dataset.ErrUnknownItem).
//
// Coherence: one rating by user u shifts u's vector and therefore
// sim(v, u) — but only for the users v that share an item with u. The
// ingest exploits that where a rebuild is expensive, the neighborhood
// cache: one walk of u's rater lists names those users and their fresh
// similarities, and each of their cached neighborhoods has u re-ranked
// in place, one after another on the ingesting goroutine (epoch-fenced
// against in-flight fills re-installing pre-ingest results); only u's
// own is dropped. The sorted
// views above them all drop: every rating shifts a fallback mean, no
// measured workload re-reads a view between two ratings, and a view
// rebuilt over repaired neighborhoods costs one batch prediction.
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
		if ferr := w.remote.Apply(w.remoteApplySeq, r); ferr != nil {
			w.remoteFanoutMisses.Add(1)
		}
	}
	// Last, once the rating is applied everywhere it is going to be:
	// drop every sorted view. Builds in flight need no extra fence — a
	// view still mid-build when the sweep passes is unlinked by it (see
	// liststore.AcquireMulti), and one started afterwards reads
	// post-ingest state wherever it is built.
	w.lists.InvalidateAll()
	if journalErr != nil {
		return fmt.Errorf("repro: rating applied but not journaled: %w", journalErr)
	}
	return nil
}

// RemoteFanoutMisses counts distributed ingests whose owning worker
// missed the fanned-out write (and was fenced). Zero in-process.
func (w *World) RemoteFanoutMisses() uint64 { return w.remoteFanoutMisses.Load() }

// applyRating lands r in the store and makes the predictor coherent
// with it. Caller holds ingestMu.
func (w *World) applyRating(r dataset.Rating) error {
	if err := w.ratings.Apply(r); err != nil {
		return fmt.Errorf("repro: applying rating: %w", err)
	}
	// Store first, then the predictor (its recomputed means must see the
	// new rating).
	if w.dropAllNeighborhoods {
		w.pred.NoteIngest(r.User)
	} else {
		w.pred.NoteIngestScoped(r.User, r.Item)
	}
	return nil
}

// IngestStats snapshots the live-ingest counters: ratings applied
// since start (pending is always 0 — a rating is folded as it lands).
func (w *World) IngestStats() dataset.DeltaStats { return w.ratings.DeltaStats() }

// RemoteStats is the distributed transport's observability surface
// for /v1/stats: the shard-set's wire counters plus the router list
// store's view traffic. Zero-valued in-process (the serving layer
// reports the section only when a fleet is attached).
type RemoteStats struct {
	// Attached reports whether a worker fleet is attached at all.
	Attached bool `json:"attached"`
	// Transport counts the shard-set's wire traffic: calls by op,
	// retries, breaker opens, dials vs connection reuses.
	Transport remote.TransportStats `json:"transport"`
	// ViewCache counts the traffic of the router's list store, which
	// retains the views it fetches.
	ViewCache ViewCacheStats `json:"view_cache"`
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
	ls := w.lists.Stats()
	return RemoteStats{
		Attached:  true,
		Transport: w.remote.TransportStats(),
		ViewCache: ViewCacheStats{
			Hits:          ls.ViewHits,
			Misses:        ls.ViewBuilds,
			Invalidations: ls.Invalidations,
			Evictions:     ls.Evictions,
			Size:          ls.Size,
			Capacity:      w.lists.Capacity(),
		},
	}
}

// CacheStats reports the engine's cache counters — the sorted-list
// store and the predictor's lazy neighborhood cache — for the
// serving layer's /stats endpoint and any other observability
// consumer.
type CacheStats struct {
	// ListStore counts the sorted-list store's view and lifecycle
	// traffic.
	ListStore liststore.Stats `json:"list_store"`
	// Neighborhoods counts the predictor's lazy user-neighborhood cache.
	Neighborhoods cf.CacheStats `json:"neighborhoods"`
}

// CacheStats snapshots the engine's cache counters. Safe for concurrent
// use with recommendation traffic; the counters are atomic and only
// eventually consistent with each other.
//
// In-process they are the list store's and the predictor's own.
// On a router the views are built on the workers, so the list store
// counters are the sum of every reachable worker's totals — an
// unreachable worker's traffic is missing, not failing the answer —
// except the pool size, which the router's own store keeps. Neighborhoods
// are filled on both sides (a worker for the views it builds, the
// router for its own dense rows), so they are the workers' sum plus the
// router's own.
func (w *World) CacheStats() CacheStats {
	st := CacheStats{ListStore: w.lists.Stats(), Neighborhoods: w.pred.Stats()}
	if w.remote != nil {
		workers, _ := w.remote.Stats()
		workers.Neighborhoods.Add(st.Neighborhoods)
		st.Neighborhoods = workers.Neighborhoods
		pool := st.ListStore.PoolSize
		st.ListStore = workers.ListStore
		st.ListStore.PoolSize = pool
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
