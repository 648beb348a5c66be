// Package shard is the user-range partitioning layer of the engine: a
// Map routes dense user IDs onto N shards so every per-user data
// structure — rating rows and rated-item bitsets (dataset), predictor
// neighborhood caches (cf), materialized sorted-list views
// (liststore), and the affinity model's pair tables (affinity) — can
// keep an independent arena, lock, and capacity budget per shard. One
// request only ever touches the shards its group members hash to, so
// invalidation or eviction pressure on one shard never blocks serving
// from another.
//
// Map is deliberately an interface: the in-process Hash implementation
// below is the whole story today, but it is the seam a future
// multi-process deployment plugs a remote shard client into — the
// routing contract (stable shard-of-user assignment) is all the
// consumers depend on.
//
// N = 1 degenerates to the unsharded layout bit-identically: every ID
// routes to shard 0, Split hands the whole budget to that shard, and
// every consumer's single part is laid out exactly as before the
// partitioning existed.
package shard

import "fmt"

// Map assigns IDs to shards. Implementations must be pure: Of must
// return the same shard for the same ID forever (views and pair
// tables are looked up where they were stored), and must
// return a value in [0, N()).
type Map interface {
	// N is the shard count, at least 1.
	N() int
	// Of returns the shard index of id, in [0, N()).
	Of(id int64) int
}

// Hash is the in-process Map: multiplicative hashing of the ID onto n
// shards. Dense sequential user IDs spread evenly — adjacent IDs land
// on different shards — which is what keeps hot study populations from
// piling onto one arena.
type Hash struct {
	n int
}

// New returns an n-way hash map. n < 1 is a configuration error; n = 1
// degenerates to the identity layout (everything on shard 0).
func New(n int) (*Hash, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d, want >= 1", n)
	}
	return &Hash{n: n}, nil
}

// Single is the 1-way map every consumer defaults to when no sharding
// is configured.
var Single Map = &Hash{n: 1}

// N returns the shard count.
func (h *Hash) N() int { return h.n }

// Of returns the shard of id. IDs are mixed through a 64-bit finalizer
// before the modulo so dense sequential IDs do not alias on shard
// counts that divide small strides.
func (h *Hash) Of(id int64) int {
	if h.n == 1 {
		return 0
	}
	return int(mix(uint64(id)) % uint64(h.n))
}

// mix is the splitmix64 finalizer — a cheap, well-distributed 64-bit
// permutation.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Normalize maps nil onto Single so consumers can hold a Map field
// unconditionally.
func Normalize(m Map) Map {
	if m == nil {
		return Single
	}
	return m
}

// PairOf routes an unordered ID pair onto the shard of its lower ID —
// the canonical home of pair-keyed state (the affinity model's pair
// tables shard this way, matching the Pair{U < V} key order).
func PairOf(m Map, u, v int64) int {
	if u > v {
		u, v = v, u
	}
	return m.Of(u)
}

// Split divides a capacity budget across the shards: each shard gets
// at least 1, the remainder goes to the lowest-indexed shards, and for
// a budget of at least N the per-shard budgets sum exactly to total.
// Split(Single, total) is [total], so a 1-way world keeps today's
// budget untouched.
func Split(m Map, total int) []int {
	n := m.N()
	out := make([]int, n)
	base, rem := total/n, total%n
	for i := range out {
		b := base
		if i < rem {
			b++
		}
		if b < 1 {
			b = 1
		}
		out[i] = b
	}
	return out
}
