package cf

import "sync/atomic"

// CacheStats is a point-in-time snapshot of one cache's counters — the
// observability surface the serving layer's /stats endpoint exposes.
// Hits and Misses count lookups; Size is the current entry count (the
// predictor's lazy cache only grows, bounded by the population, so
// there is no eviction counter).
type CacheStats struct {
	Hits   uint64 `json:"hits"`
	Misses uint64 `json:"misses"`
	Size   int    `json:"size"`
	// Invalidated and Retained count scoped-invalidation outcomes per
	// resident entry per ingest: Invalidated entries were dropped as
	// dependent on the ingested rating, Retained entries were proven
	// independent and kept warm. A drop-everything invalidation counts
	// every resident entry as Invalidated, so the Retained/Invalidated
	// ratio is the direct measure of how much cache heat ingest traffic
	// preserves.
	Invalidated uint64 `json:"invalidated"`
	Retained    uint64 `json:"retained"`
}

// Add sums o's counters and entry count into s — the totals of two
// caches that hold disjoint traffic (a router's and its workers').
func (s *CacheStats) Add(o CacheStats) {
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Size += o.Size
	s.Invalidated += o.Invalidated
	s.Retained += o.Retained
}

// cacheCounters is the atomic backing shared by every cache in this
// package. Counter updates sit on hot prediction paths, so they must
// never take a lock; snapshots are read individually and need only be
// eventually consistent with each other.
type cacheCounters struct {
	hits        atomic.Uint64
	misses      atomic.Uint64
	invalidated atomic.Uint64
	retained    atomic.Uint64
}

func (c *cacheCounters) hit()  { c.hits.Add(1) }
func (c *cacheCounters) miss() { c.misses.Add(1) }

func (c *cacheCounters) invalidate(n int) {
	if n > 0 {
		c.invalidated.Add(uint64(n))
	}
}

func (c *cacheCounters) retain(n int) {
	if n > 0 {
		c.retained.Add(uint64(n))
	}
}

// snapshot pairs the counters with the current entry count.
func (c *cacheCounters) snapshot(size int) CacheStats {
	return CacheStats{
		Hits:        c.hits.Load(),
		Misses:      c.misses.Load(),
		Size:        size,
		Invalidated: c.invalidated.Load(),
		Retained:    c.retained.Load(),
	}
}
