package repro

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"repro/internal/affinity"
	"repro/internal/cf"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/groups"
	"repro/internal/liststore"
	"repro/internal/remote"
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
	// generating them. NewWorld reads it while another goroutine reads
	// the social readers, so it must not share state with them (two
	// readers over one file descriptor, say).
	RatingsReader io.Reader
	// FriendshipsReader and PageLikesReader, when both non-nil, load
	// the social network from the CSV formats datagen emits
	// (user_a,user_b and user,category,timestamp) instead of
	// generating it. Social.Users still sets the population size and
	// Social.Start/End the observation window. A loaded network has no
	// latent ground truth, so the quality study requires a generated
	// one. NewWorld reads them, friendships first, on a goroutine of
	// their own, at the same time as RatingsReader; a shard worker
	// (NewShardBackendFromConfig) never reads them.
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
	// it fetches from the workers; a shard worker keeps no store and
	// ignores the size. The capacity is not in the config fingerprint.
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

// World is the assembled reproduction substrate: a user plane (the
// rating store and the CF predictor; see userPlane) beside a global
// plane (the social network, the affinity model, the participants, the
// sorted-list store of per-user views, and the assembler that joins both
// planes into a request's problem). It is safe for concurrent Recommend
// calls (each call builds its own problem instance; the underlying CF
// caches are internally synchronized), and mutates only through two
// serialized write paths: AddRating ingests live ratings into the
// store, and AppendNextPeriod extends the affinity index — both safe to
// run while serving.
type World struct {
	*userPlane
	globalPlane
	// boot is how long each stage of NewWorld took.
	boot BootTimes
	// wal, when set, is notified of every applied rating for
	// durability; see SetRatingLog.
	wal RatingLog
	// remote, when set by AttachRemote, is the worker fleet serving the
	// per-user data plane: AddRating hands it every rating to fan out,
	// and CacheStats adds the workers' neighborhood counters. Nil
	// in-process.
	remote *remote.ShardSet
}

// globalPlane is the part of a world that answers group-level
// questions — who may form a group and how close its members are — and
// assembles problems. A shard worker keeps none of it.
type globalPlane struct {
	synth *dataset.Synth // nil when ratings were loaded from disk
	// network holds the generated network's latent structure; nil when
	// the network was loaded from CSV.
	network *social.SynthNetwork
	// socialNet is the observable network (always set).
	socialNet *social.Network
	// lists is the sorted-list store over the user plane's pool, the
	// deployment's one view cache. In-process its views are built from
	// the predictor (engine.LocalBuilder); AttachRemote points it at a
	// builder that fetches the scores from the owning workers.
	lists *liststore.Store
	// asm is the assembly layer building each request's problem from the
	// user plane's predictor and the list store.
	asm      *engine.Assembler
	model    *affinity.Model
	timeline affinity.Timeline
	// pending are the not-yet-indexed periods of the full window
	// (index-maintenance mode; empty otherwise).
	pending []affinity.Period
	// participants are the users present in both the rating store and
	// the social network (the study population).
	participants []dataset.UserID
	// periodMu guards the index-maintenance state — pending, timeline,
	// and the affinity model's per-period tables — so AppendNextPeriod
	// can extend the index while requests resolve periods and read
	// drifts (readers take it shared; see buildProblem).
	periodMu sync.RWMutex
}

// NewWorld builds every substrate: ratings (loaded or generated), the
// social network, the CF predictor, and the temporal affinity model
// over the configured granularity.
//
// The rating store and the social network depend on nothing of each
// other, so they are built at once: the ratings arm (bootRatings) on the
// calling goroutine, the network arm (bootNetwork) on one more. The two
// join before NewWorld returns, on every path, and the errors are
// reported in a fixed order whichever arm finished first: the ratings
// error, a social population larger than the rating users, half-set
// social readers, then the network error. The user plane
// (newUserPlane) and the affinity model are built after the join.
// Config's readers are read concurrently, so they must be independent.
func NewWorld(cfg Config) (*World, error) {
	sm, scfg, err := bootConfig(cfg)
	if err != nil {
		return nil, err
	}
	var (
		nw networkArm
		wg sync.WaitGroup
	)
	pairErr := checkSocialReaders(cfg)
	if pairErr == nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nw = bootNetwork(cfg, scfg)
		}()
	}
	rs := bootRatings(cfg, scfg)
	wg.Wait()
	if rs.err != nil {
		return nil, rs.err
	}
	if err := checkPopulation(scfg, rs.store); err != nil {
		return nil, err
	}
	if pairErr != nil {
		return nil, pairErr
	}
	if nw.err != nil {
		return nil, nw.err
	}

	w := &World{boot: BootTimes{Ratings: rs.took, Network: nw.took}}
	w.synth, w.network, w.socialNet = rs.synth, nw.synth, nw.net
	start := time.Now()
	if w.userPlane, err = newUserPlane(rs.store, cfg, sm); err != nil {
		return nil, err
	}
	w.boot.UserPlane = time.Since(start)
	w.lists = liststore.NewOver(engine.LocalBuilder(w.pred, w.poolPos), w.pool, cfg.ListStoreSize)
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
	start = time.Now()
	src := affinity.NetworkSource{Network: w.socialNet}
	model, err := affinity.BuildModel(w.participants, w.timeline, src, src)
	if err != nil {
		return nil, fmt.Errorf("repro: building affinity model: %w", err)
	}
	w.boot.Model = time.Since(start)
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
// crash recovery. It is the user plane's one write path (userPlane.ingest)
// followed, under the same ingest lock, by the journal, the fan-out and
// the view drop.
//
// It returns only a rejection or the journal's error. A rejection
// (out-of-range value, unknown user or item) leaves the world untouched
// and unwraps to the dataset package's typed errors
// (dataset.ErrBadValue, dataset.ErrUnknownUser,
// dataset.ErrUnknownItem). A journal error comes after the apply: the
// rating is in the store, and on a router it is fanned out all the
// same, since the fan-out follows the store, not the journal. A worker
// that misses the fan-out never fails the ingest: remote.ShardSet.Apply
// fences it and counts the miss.
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
//
// The views drop last, once the rating is applied everywhere it is
// going to be, whatever the journal answered. Builds in flight need no
// extra fence: a view still mid-build when the sweep passes is unlinked
// by it (see liststore.AcquireMulti), and one started afterwards reads
// post-ingest state wherever it is built.
func (w *World) AddRating(r dataset.Rating) error {
	return w.ingest(r, func() error {
		var err error
		if w.wal != nil {
			err = w.wal.Append(r)
		}
		// A worker that missed it is fenced and counted by the set; the
		// ingest stands (see remote.ShardSet.Apply).
		_ = w.remote.Apply(r)
		w.lists.InvalidateAll()
		if err != nil {
			return fmt.Errorf("repro: rating applied but not journaled: %w", err)
		}
		return nil
	})
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
	st := RemoteStats{Attached: w.remote != nil, Transport: w.remote.TransportStats()}
	if st.Attached {
		ls := w.lists.Stats()
		st.ViewCache = ViewCacheStats{
			Hits:          ls.ViewHits,
			Misses:        ls.ViewBuilds,
			Invalidations: ls.Invalidations,
			Evictions:     ls.Evictions,
			Size:          ls.Size,
			Capacity:      w.lists.Capacity(),
		}
	}
	return st
}

// CacheStats is the engine's cache counters — the sorted-list store and
// the predictors' lazy neighborhood caches — for the serving layer's
// /stats endpoint and any other observability consumer.
type CacheStats struct {
	// ListStore counts the world's sorted-list store: its view traffic
	// and lifecycle.
	ListStore liststore.Stats `json:"list_store"`
	// Neighborhoods counts the neighborhood caches: the world's own
	// and, on a router, every reachable worker's.
	Neighborhoods cf.CacheStats `json:"neighborhoods"`
}

// CacheStats snapshots the engine's cache counters. Safe for concurrent
// use with recommendation traffic; the counters are atomic and only
// eventually consistent with each other.
//
// The list store is the world's own, the only view cache of a
// deployment: on a router it counts the views fetched from the workers,
// which keep none. Neighborhoods are filled on both sides (a worker for
// the scores it computes, a router for its own dense rows), so they are
// the world's own plus every reachable worker's — an unreachable
// worker's traffic is missing, not failing the answer. In-process no
// worker adds any.
func (w *World) CacheStats() CacheStats {
	fleet, _ := w.remote.Stats()
	nb := w.pred.Stats()
	nb.Add(fleet.Neighborhoods)
	return CacheStats{ListStore: w.lists.Stats(), Neighborhoods: nb}
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
