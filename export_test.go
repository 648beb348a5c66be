package repro

import "repro/internal/engine"

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
