package repro

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
)

// Request is one unit of a RecommendBatchContext call: a group plus
// its options.
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

// RecommendBatchContext runs many Recommend calls concurrently — the
// shape of the paper's Figure 6 sweep, where hundreds of groups are
// scored in one pass — under one caller context. Results are
// positionally aligned with reqs. min(GOMAXPROCS, len(reqs)) workers
// claim requests off one cursor and thread ctx through
// RecommendContext, so a single cancel (or deadline expiry) stops the
// whole sweep — in-flight requests stop within one check interval,
// not-yet-started ones are skipped. Interrupted slots carry ctx's error (a Result holds either
// a Recommendation or an Err, never both); completed slots keep their
// results.
//
// Requests of one batch share assembly work the same way any
// concurrent callers do: the sorted-list store keys views by user, so
// a member appearing in two requests is scored and sorted once; each
// request builds its own pool→candidate mapping.
func (w *World) RecommendBatchContext(ctx context.Context, reqs []Request) []Result {
	out := make([]Result, len(reqs))
	workers := min(runtime.GOMAXPROCS(0), len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				if err := ctx.Err(); err != nil {
					out[i] = Result{Err: err}
					continue
				}
				rec, err := w.RecommendContext(ctx, reqs[i].Group, reqs[i].Options)
				if err != nil {
					// A cancelled run's partial recommendation is a
					// single-request (RecommendContext) affordance.
					rec = nil
				}
				out[i] = Result{Recommendation: rec, Err: err}
			}
		}()
	}
	wg.Wait()
	return out
}
