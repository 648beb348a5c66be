package cf

import "repro/internal/dataset"

// Source is the absolute-preference abstraction of the engine's
// preference layer: anything that can predict a user's rating for one
// item or for a whole candidate slice at once. The paper's formulation
// is agnostic to the apref producer ("existing single-user
// recommendation algorithms ... could be used"); Source is where that
// agnosticism lives in code. All three predictors in this package
// implement it, so the assembly layer never dispatches on concrete
// predictor types.
//
// PredictBatch must be equivalent to calling Predict per item — same
// values, computed once per (user, item) — but is free to resolve
// shared work (the user's neighborhood, the user's own rating vector)
// a single time for the whole slice. Implementations must be safe for
// concurrent use.
type Source interface {
	// Predict returns the predicted rating of u for item it on the
	// 1..5 scale. Predictions are total: implementations fall back to
	// item and global means when coverage is missing.
	Predict(u dataset.UserID, it dataset.ItemID) float64
	// PredictBatch returns predictions of u for every item in items,
	// in order. The returned slice is owned by the caller.
	PredictBatch(u dataset.UserID, items []dataset.ItemID) []float64
}

// BatchInto is an optional Source extension that writes predictions
// into a caller-provided buffer, letting the assembly layer reuse
// pooled rows without an intermediate allocation. dst must have
// len(items) capacity available; implementations fill dst[:len(items)].
type BatchInto interface {
	PredictBatchInto(u dataset.UserID, items []dataset.ItemID, dst []float64)
}

// Compile-time checks: every predictor is a full batch-capable Source.
var (
	_ Source    = (*Predictor)(nil)
	_ Source    = (*ItemPredictor)(nil)
	_ Source    = (*TimeWeightedPredictor)(nil)
	_ BatchInto = (*Predictor)(nil)
	_ BatchInto = (*ItemPredictor)(nil)
	_ BatchInto = (*TimeWeightedPredictor)(nil)
)
