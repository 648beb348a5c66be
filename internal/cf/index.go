package cf

// denseIndex maps the IDs of one domain of the store — its users or its
// items — onto dense positions in ascending-ID order (Users() / Items()
// order). An ingest cannot grow either domain (dataset.ErrUnknownUser,
// dataset.ErrUnknownItem), so an index is fixed at construction. IDs
// close together get an offset table; sparse or far-apart ones (a loader
// fed arbitrary IDs) a map.
type denseIndex[K ~int] struct {
	ids  []K
	base K
	// table[id-base] is id's position plus one, 0 for an ID in the span
	// that the domain does not hold; nil when the IDs are too spread out.
	table  []int32
	sparse map[K]int32
}

// newDenseIndex indexes ids, which must be ascending and distinct.
func newDenseIndex[K ~int](ids []K) denseIndex[K] {
	ix := denseIndex[K]{ids: ids}
	if len(ids) == 0 {
		return ix
	}
	ix.base = ids[0]
	// Unsigned difference: exact even when the IDs straddle the whole
	// int range.
	span := uint64(ids[len(ids)-1]) - uint64(ids[0])
	if span < uint64(8*len(ids)+1024) {
		ix.table = make([]int32, span+1)
		for i, id := range ids {
			ix.table[id-ix.base] = int32(i) + 1
		}
		return ix
	}
	ix.sparse = make(map[K]int32, len(ids))
	for i, id := range ids {
		ix.sparse[id] = int32(i)
	}
	return ix
}

// of returns id's dense position, or false for an ID outside the domain.
func (ix *denseIndex[K]) of(id K) (int, bool) {
	if ix.sparse != nil {
		i, ok := ix.sparse[id]
		return int(i), ok
	}
	off := uint64(id) - uint64(ix.base)
	if off >= uint64(len(ix.table)) {
		return 0, false
	}
	i := ix.table[off]
	return int(i) - 1, i != 0
}
