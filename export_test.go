package repro

import (
	"repro/internal/dataset"
	"repro/internal/engine"
)

// NewFullInvalidationWorld is NewWorld with the drop-everything ingest
// scheme: every AddRating discards every cached neighborhood
// (cf.Predictor.NoteIngest) instead of the ones the rating reaches. It
// serves the same bytes as a NewWorld world — scoping only decides how
// much cache heat survives — and exists as the reference the scoped
// scheme is differentially tested
// (TestFullInvalidationMatchesScoped) and benchmarked
// (BenchmarkIngestMix/full, BenchmarkIngestOnly/full) against. No
// Config field, flag or environment variable selects it.
func NewFullInvalidationWorld(cfg Config) (*World, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	w.dropAllNeighborhoods = true
	return w, nil
}

// NewDenseWorld is NewWorld with an assembler that has no list store:
// every problem is assembled from dense batch-predicted rows and sorts
// its own lists (core.NewProblem). The world still keeps its store — it
// is only never read — and serves the same bytes as a NewWorld world.
// It is the reference the store-served assembly is differentially
// tested against (TestRecommendListStoreDifferential). No Config field,
// flag or environment variable selects it.
func NewDenseWorld(cfg Config) (*World, error) {
	w, err := NewWorld(cfg)
	if err != nil {
		return nil, err
	}
	w.asm = engine.New(w.pred, nil)
	return w, nil
}

// ViewScores returns u's pool-order view scores from w's list store:
// built in place in process, fetched from u's owning worker on a router.
func (w *World) ViewScores(u dataset.UserID) ([]float64, error) {
	v, err := w.lists.Acquire(u)
	if err != nil {
		return nil, err
	}
	return v.Scores, nil
}

// PlaneStats returns the cache counters of w's own user plane. On a
// router they leave the workers' out, which CacheStats sums in.
func (w *World) PlaneStats() CacheStats { return w.cacheStats() }
