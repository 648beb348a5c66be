// Package repro is a from-scratch Go reproduction of "Group
// Recommendation with Temporal Affinities" (Amer-Yahia, Omidvar-
// Tehrani, Basu Roy, Shabib — EDBT 2015): recommending the top-k items
// to an ad-hoc user group while accounting for the affinity between
// group members and its evolution over time.
//
// The package exposes a small facade over the internal building
// blocks:
//
//   - World assembles the substrates: a collaborative rating store
//     (MovieLens-shaped, loaded or synthesized), a social network
//     (friendships + timestamped page-likes, synthesized like the
//     paper's Facebook study), a user-based collaborative filtering
//     predictor for absolute preferences, and the temporal affinity
//     model (static + periodic drift).
//   - World.Recommend runs GRECA — the paper's instance-optimal
//     NRA-style top-k algorithm with its novel buffer termination
//     condition — for any ad-hoc group, under any of the paper's
//     consensus functions (AP, MO, PD) and time models (discrete,
//     continuous, time-agnostic, affinity-agnostic). Problem assembly
//     is batched, cached, and parallel (see DESIGN.md's engine
//     layering), and a World serves any number of concurrent callers.
//   - World.RecommendContext / World.RecommendStream are the anytime
//     forms (API v2): GRECA's round loop runs on a resumable
//     core.Runner that checks the caller's context between stopping
//     checks, so deadlines and cancellation stop a run within one
//     check interval and return the partial top-k with its guaranteed
//     bounds; RecommendStream additionally delivers a Progress frame
//     (monotonically tightening bounds, access stats, bound gap) after
//     every check. Typed sentinel errors (ErrEmptyGroup,
//     ErrDuplicateMember, ErrDuplicateItem, ErrPeriodOutOfRange,
//     ErrKExceedsCandidates) classify client-shaped failures.
//   - World.RecommendBatchContext scores many groups in one call —
//     the shape of the paper's Figure 6 sweep — over GOMAXPROCS
//     workers that share sorted-list store views like any concurrent
//     callers, under one context, so a single cancel stops every
//     in-flight run.
//   - internal/liststore precomputes per-user descending-sorted
//     preference views over the popularity pool, so a problem whose
//     candidate slice the pool covers whole is assembled by filtering
//     each member's view (core.NewProblemFromViews) instead of
//     per-request re-sorting — bit-identical output, a fraction of
//     the construction cost. Every world has one and owns its
//     lifecycle (Config.ListStoreSize bounds it; AddRating drops every
//     view); internal/engine alone decides, per request, whether a
//     problem is served from views or from dense rows.
//   - World.AddRating ingests a rating into the built world while it
//     serves: the rating is folded into the one rater list and the one
//     user row it changes, so no read merges, and the cached
//     neighborhoods the rating reaches are repaired in place — one walk
//     of the rater's lists names the users it co-rates with and their
//     fresh similarities, and the rater is re-ranked inside each cached
//     neighborhood's ranked margin; only the rater's own is dropped.
//     Every sorted-list view drops with each rating (no workload
//     re-reads one between two ratings) and is rebuilt over the
//     repaired neighborhoods on next use, so sustained ingest keeps the
//     expensive cache warm without changing a served byte: everything
//     served is bit-identical to a world rebuilt from scratch with that
//     rating. OpenWorld / SaveWorldSnapshot add durability: a
//     checksummed snapshot of the ratings plus a single write-ahead log
//     give warm restarts; the views and neighborhoods, functions of the
//     ratings, fill on first use as on a cold boot. Ingest is
//     serial under one lock, so nothing on that path fans out: the
//     repairs run on the ingesting goroutine and a torn journal
//     replays a prefix of the acknowledged ratings.
//   - internal/remote distributes the shards across worker processes:
//     a shard (internal/shard) is only a routing unit, users hashed onto
//     N of them. cmd/greca-shard holds a full replica and serves the
//     users of its owned shards (views, predictions, its cache totals)
//     behind a small length-prefixed, checksummed RPC protocol, and
//     greca-serve -shards-config attaches a remote.ShardSet that routes
//     each user's reads to the owning worker through the same shard.Map,
//     keeping the views it fetches in its own list store until a rating
//     drops them — byte-identical to the single-process world. Rating
//     ingest fans out to every replica (owner ack wins); a dead
//     worker degrades only its shards (503 + Retry-After), a slow one
//     answers 504, and the survivors keep serving.
//   - internal/server (exposed as cmd/greca-serve) serves live HTTP
//     traffic on a versioned surface (/v1/recommend, /v1/recommend/
//     batch, /v1/recommend/stream; /v1 is the only prefix): every
//     admitted request runs at once on its handler's goroutine under
//     the request's own context, -maxpending sheds overload with 429s,
//     the stream route emits SSE progress frames, every 4xx carries a
//     machine-readable error code, /v1/stats reports admission, stream
//     and cache counters (World.CacheStats), and shutdown drains the
//     requests in flight.
//
// A minimal session:
//
//	w, err := repro.NewWorld(repro.QuickConfig())
//	if err != nil { ... }
//	group := w.Participants()[:3]
//	rec, err := w.Recommend(group, repro.Options{K: 5})
//	if err != nil { ... }
//	for _, it := range rec.Items {
//		fmt.Println(it.Item, it.Score)
//	}
//	fmt.Printf("accesses saved: %.1f%%\n", rec.Stats.Saveup())
//
// The same query under a deadline, consuming progressive snapshots:
//
//	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
//	defer cancel()
//	rec, err = w.RecommendStream(ctx, group, repro.Options{K: 5},
//		func(p repro.Progress) bool {
//			fmt.Printf("check %d: gap %.3f\n", p.Stats.Checks, p.BoundGap())
//			return true // false stops early with the partial result
//		})
//	if err != nil && rec != nil {
//		// Deadline hit: rec is the partial top-k known so far
//		// (rec.Partial is true, bounds still guaranteed).
//	}
//
// A live, durable world — ratings ingested under traffic, a snapshot
// on the way out, a warm restart on the way back in:
//
//	w, boot, err := repro.OpenWorld(cfg, "/var/lib/greca")
//	if err != nil { ... }
//	// boot.Warm, boot.ReplayedRatings say how the world came up;
//	// boot.DiscardedRatings > 0 means the journal belonged to another
//	// configuration and its acknowledged ratings were dropped.
//	err = w.AddRating(dataset.Rating{User: u, Item: i, Value: 4.5, Time: now})
//	// The rating is journaled and every stale cache dropped; the next
//	// Recommend reflects it exactly as a cold rebuild would.
//	rec, err = w.Recommend(group, repro.Options{K: 5})
//	...
//	repro.SaveWorldSnapshot(w, "/var/lib/greca") // dumps the store, resets the log
//	w.ClosePersistence()
//
// See DESIGN.md for the full system inventory and EXPERIMENTS.md for
// the paper-versus-measured record of every table and figure.
package repro
