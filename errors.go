package repro

import (
	"errors"

	"repro/internal/remote"
)

// Typed sentinel errors for client-shaped request failures. Every
// facade entry point (Recommend, RecommendContext, RecommendStream,
// RecommendBatchContext) wraps these with request detail, so callers — the
// HTTP layer in particular — branch with errors.Is instead of matching
// message strings, and map each to a machine-readable error code.
var (
	// ErrEmptyGroup: the request named no group members.
	ErrEmptyGroup = errors.New("empty group")
	// ErrDuplicateMember: the same user appears twice in the group.
	ErrDuplicateMember = errors.New("duplicate group member")
	// ErrDuplicateItem: the same item appears twice in Options.Items.
	ErrDuplicateItem = errors.New("duplicate candidate item")
	// ErrPeriodOutOfRange: Options.Period is outside [1, NumPeriods].
	ErrPeriodOutOfRange = errors.New("period out of range")
	// ErrKExceedsCandidates: Options.K exceeds the candidate pool the
	// group's exclusions leave available.
	ErrKExceedsCandidates = errors.New("k exceeds candidate count")
)

// Transport sentinels of the distributed world, re-exported so the
// serving layer maps them to HTTP codes without importing the
// transport package. Unlike the client-shaped sentinels above, these
// are server-side degradations: the request was well-formed, but a
// shard's worker process could not serve it.
var (
	// ErrShardUnavailable: a shard's worker cannot be reached (dial
	// failure, dead connection, mid-call disconnect) after the
	// transport's bounded retries. Maps to 503 + Retry-After; other
	// shards keep serving.
	ErrShardUnavailable = remote.ErrShardUnavailable
	// ErrShardTimeout: a worker stayed connected but failed to answer
	// within the per-call deadline. Maps to 504.
	ErrShardTimeout = remote.ErrShardTimeout
)
