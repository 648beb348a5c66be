// Package shard is the routing hash of the distributed deployment: a
// Map assigns dense user IDs to N shards, and a topology assigns each
// shard to the worker process that serves its users (cmd/greca-shard).
// The router, every worker and the in-process world all route through
// the same Map, which is what makes a request for a user land on the
// worker that owns it and a misrouted one answer wrong_shard.
//
// A shard says nothing about how a process lays out memory: the rating
// store, the predictor's cache, the sorted-list store and, in a process
// that keeps them, the affinity tables are each one structure per
// process, whatever N is.
package shard

import "fmt"

// Map routes IDs onto n shards by multiplicative hashing. It is
// immutable: Of returns the same shard for the same ID forever, in
// [0, N()). Dense sequential user IDs spread evenly — adjacent IDs land
// on different shards — so no worker is handed a contiguous hot range.
type Map struct {
	n int
}

// New returns an n-way map. n < 1 is a configuration error; n = 1
// routes everything to shard 0.
func New(n int) (*Map, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: shard count %d, want >= 1", n)
	}
	return &Map{n: n}, nil
}

// N returns the shard count.
func (m *Map) N() int { return m.n }

// Of returns the shard of id. IDs are mixed through a 64-bit finalizer
// before the modulo so dense sequential IDs do not alias on shard
// counts that divide small strides.
func (m *Map) Of(id int64) int {
	if m.n == 1 {
		return 0
	}
	return int(mix(uint64(id)) % uint64(m.n))
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
