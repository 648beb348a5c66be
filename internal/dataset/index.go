package dataset

// Index maps the IDs of one domain of a store — its users or its items
// — onto dense positions in ascending-ID order (Users() / Items()
// order). An Apply cannot grow either domain (ErrUnknownUser,
// ErrUnknownItem), so an index is fixed by FromRatings, and every structure
// laid out over a domain — the store's cells, a rater column's
// positions, a predictor's dense tables — shares it. IDs close together
// get an offset table; sparse or far-apart ones (a loader fed arbitrary
// IDs) a map, so the index is total for any IDs, negative ones included.
type Index[K ~int] struct {
	ids  []K
	base K
	// table[id-base] is id's position plus one, 0 for an ID in the span
	// that the domain does not hold; nil when the IDs are too spread out.
	table  []int32
	sparse map[K]int32
}

// newIndex indexes ids, which must be ascending and distinct.
func newIndex[K ~int](ids []K) *Index[K] {
	ix := &Index[K]{ids: ids}
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

// Pos returns id's dense position, or false for an ID outside the
// domain.
func (ix *Index[K]) Pos(id K) (int, bool) {
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
