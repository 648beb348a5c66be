package repro

import (
	"context"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// Request is one unit of a RecommendBatch call: a group plus its
// options.
type Request struct {
	Group   []dataset.UserID
	Options Options
}

// Result pairs one Request's outcome with its error. Exactly one of
// Recommendation and Err is set.
type Result struct {
	Recommendation *Recommendation
	Err            error
}

// RecommendBatch runs many Recommend calls concurrently — the shape of
// the paper's Figure 6 sweep, where hundreds of groups are scored in
// one pass. Results are positionally aligned with reqs. It is
// RecommendBatchContext under a background context.
func (w *World) RecommendBatch(reqs []Request) []Result {
	return w.RecommendBatchContext(context.Background(), reqs)
}

// batchShardAware selects the per-shard scheduling path. The flag
// exists for the differential tests, which pin the shard-aware
// schedule against the degenerate single-queue schedule (the old
// round-robin dispatch): scheduling only changes which worker runs
// which request, never any computed value, so results must be
// identical either way.
var batchShardAware = true

// batchQueue is one lock-free work queue of request indices; workers
// claim slots with an atomic cursor. The cursor may overshoot len(idxs)
// by at most one per contending worker, which claim tolerates.
type batchQueue struct {
	idxs []int
	pos  atomic.Int64
}

func (q *batchQueue) claim() (int, bool) {
	p := q.pos.Add(1) - 1
	if p >= int64(len(q.idxs)) {
		return 0, false
	}
	return q.idxs[p], true
}

// batchShardOf classifies a request group for the batch scheduler: the
// single shard holding every member's state, or -1 for empty or
// mixed-shard groups (which go to the residual queue).
func (w *World) batchShardOf(group []dataset.UserID) int {
	if len(group) == 0 {
		return -1
	}
	s := w.ShardOf(group[0])
	for _, u := range group[1:] {
		if w.ShardOf(u) != s {
			return -1
		}
	}
	return s
}

// RecommendBatchContext runs many Recommend calls concurrently under
// one caller context: every worker threads ctx through
// RecommendContext, so a single cancel (or deadline expiry) stops the
// whole sweep — in-flight requests stop within one check interval,
// not-yet-started ones are skipped. Interrupted slots carry ctx's
// error (a Result holds either a Recommendation or an Err, never
// both); completed slots keep their results.
//
// Beyond running requests in parallel over GOMAXPROCS workers, the
// batch shares assembly work across requests: candidate pools are
// computed once per distinct (group, NumItems) pair, and because
// identical candidate slices fingerprint identically, every member
// shared by two requests reuses the same materialized sorted-list
// store view (and pool→candidate mapping) — or, on the dense fallback
// path, the same prediction row in the CF row cache — instead of
// re-scoring and re-sorting.
//
// Fully identical requests — same group order, same result-shaping
// options — collapse further: one representative runs, the duplicates
// reuse its *Recommendation (callers must treat results as read-only),
// and each duplicate bumps MuxStats.Shared. Unlike the request-level
// multiplexer this dedup is deterministic, not a race on timing: the
// duplicate never starts a run even if the representative already
// finished.
//
// Scheduling is shard-aware: requests are bucketed by the shard
// holding their group's state (World.ShardOf), each worker owns a
// disjoint stripe of shard queues, and mixed-shard or empty-group
// requests land in a residual queue every worker drains after its own
// stripe. Workers therefore sweep one shard's CF-cache and list-store
// lock stripes at a time instead of all of them interleaved; once a
// worker's stripe and the residual run dry it steals from the other
// queues, so no worker idles while work remains. Scheduling only moves
// requests between workers — results are positionally aligned and
// bit-identical to any other schedule.
func (w *World) RecommendBatchContext(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	if len(reqs) == 0 {
		return out
	}

	// Candidate pools, deduplicated across the batch. Each distinct
	// key computes once (the first worker to claim it does the work;
	// others wait on its Once).
	type candEntry struct {
		once  sync.Once
		items []dataset.ItemID
	}
	var candMu sync.Mutex
	cands := make(map[string]*candEntry, len(reqs))
	candidatesFor := func(scratch *candKeyScratch, group []dataset.UserID, n int) []dataset.ItemID {
		key := scratch.appendKey(group, n)
		candMu.Lock()
		e, ok := cands[string(key)] // alloc-free lookup on []byte key
		if !ok {
			e = &candEntry{}
			cands[string(key)] = e
		}
		candMu.Unlock()
		e.once.Do(func() { e.items = w.CandidateItems(group, n) })
		return e.items
	}

	// Whole-run singleflight, deduplicated across the batch. Requests
	// that are already known to be duplicates bypass the request-level
	// multiplexer: the representative runs the direct (unshared) loop,
	// so a batch of distinct requests pays no mux bookkeeping at all.
	var shareMu sync.Mutex
	shares := make(map[string]*batchRunShare, len(reqs))
	shareSlab := make([]batchRunShare, len(reqs)) // one allocation backs every entry

	workers := runtime.GOMAXPROCS(0)
	if workers > len(reqs) {
		workers = len(reqs)
	}

	// Bucket requests into per-shard queues plus a residual queue at
	// index nShards. The degenerate path (one shard, or the flag off)
	// routes everything through the residual queue, which every worker
	// drains with the same atomic claim — the old single round-robin
	// feed.
	nShards := w.Shards()
	if !batchShardAware {
		nShards = 1
	}
	queues := make([]*batchQueue, nShards+1)
	for i := range queues {
		queues[i] = &batchQueue{}
	}
	residual := queues[nShards]
	if nShards == 1 {
		residual.idxs = make([]int, len(reqs))
		for i := range reqs {
			residual.idxs[i] = i
		}
	} else {
		for i := range reqs {
			q := residual
			if s := w.batchShardOf(reqs[i].Group); s >= 0 {
				q = queues[s]
			}
			q.idxs = append(q.idxs, i)
		}
	}

	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			scratch := &candKeyScratch{}
			process := func(i int) {
				if err := ctx.Err(); err != nil {
					// One cancel stops the whole sweep: drain the
					// remaining slots without starting their runs.
					out[i] = Result{Err: err}
					return
				}
				req := reqs[i]
				opt := req.Options
				// fill applies the same defaulting Recommend will use;
				// on validation errors skip sharing and let Recommend
				// produce the error itself.
				filled := opt.fill() == nil
				if filled && opt.Items == nil && len(req.Group) > 0 {
					opt.Items = candidatesFor(scratch, req.Group, opt.NumItems)
				}
				var rec *Recommendation
				var err error
				if filled {
					// The key reuses the worker's scratch buffer —
					// candidatesFor is done with it — so only the first
					// insert of each distinct key allocates.
					key := appendBatchRunKey(scratch.buf[:0], req.Group, &opt)
					scratch.buf = key
					shareMu.Lock()
					sh, ok := shares[string(key)]
					if !ok {
						sh = &shareSlab[len(shares)]
						shares[string(key)] = sh
					}
					shareMu.Unlock()
					ran := false
					sh.once.Do(func() {
						ran = true
						sh.rec, sh.err = w.recommendStreamDirect(ctx, req.Group, opt, nil)
					})
					if !ran {
						w.mux.shared.Add(1)
					}
					rec, err = sh.rec, sh.err
				} else {
					rec, err = w.RecommendContext(ctx, req.Group, opt)
				}
				if err != nil {
					// Keep the exactly-one-field Result contract: a
					// cancelled run's partial recommendation is a
					// single-request (RecommendContext) affordance.
					rec = nil
				}
				out[i] = Result{Recommendation: rec, Err: err}
			}
			// Own stripe first: queues k, k+workers, ... — disjoint
			// across workers, so each sweeps one shard's locks at a
			// time while the stripes last.
			for q := k; q < nShards; q += workers {
				for {
					i, ok := queues[q].claim()
					if !ok {
						break
					}
					process(i)
				}
			}
			// Residual (mixed-shard and empty groups), shared by all.
			for {
				i, ok := residual.claim()
				if !ok {
					break
				}
				process(i)
			}
			// Steal: drain whatever other stripes still hold so no
			// worker idles while work remains.
			for q := 0; q < nShards; q++ {
				for {
					i, ok := queues[q].claim()
					if !ok {
						break
					}
					process(i)
				}
			}
		}(k)
	}
	wg.Wait()
	return out
}

// batchRunShare is one deduplicated run within a batch: the first
// request to claim the key executes, every duplicate waits on the Once
// and reuses the settled outcome.
type batchRunShare struct {
	once sync.Once
	rec  *Recommendation
	err  error
}

// appendBatchRunKey extends the mux run fingerprint with Epsilon: the
// mux treats it as a per-subscriber stopping policy, but here it
// shapes the one shared result, so requests differing in Epsilon must
// not collapse. (ProgressEvery stays excluded — the batch passes no
// progress consumer, so it cannot influence the outcome.)
func appendBatchRunKey(b []byte, group []dataset.UserID, o *Options) []byte {
	b = appendRunFingerprint(b, group, o)
	b = append(b, '|')
	b = strconv.AppendUint(b, math.Float64bits(o.Epsilon), 16)
	return b
}

// candKeyScratch holds one worker's reusable buffers for candidate-key
// construction, so steady-state key building allocates nothing.
type candKeyScratch struct {
	buf []byte
	ids []int64
}

// appendKey builds the canonical candidate-pool key (order-insensitive
// over the group — the pool is a set property — plus the candidate
// count) into the scratch buffer. The returned bytes alias the scratch
// and are only valid until the next appendKey call.
func (s *candKeyScratch) appendKey(group []dataset.UserID, n int) []byte {
	s.ids = s.ids[:0]
	for _, u := range group {
		s.ids = append(s.ids, int64(u))
	}
	slices.Sort(s.ids)
	b := s.buf[:0]
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '|')
	for _, id := range s.ids {
		b = strconv.AppendInt(b, id, 10)
		b = append(b, ',')
	}
	s.buf = b
	return b
}

// candidateKey canonicalizes a group (order-insensitively) plus the
// candidate count as a standalone string — the allocating form of
// candKeyScratch.appendKey, kept for one-off callers.
func candidateKey(group []dataset.UserID, n int) string {
	var s candKeyScratch
	return string(s.appendKey(group, n))
}
