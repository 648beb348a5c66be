// Package social provides the social-network substrate of the
// reproduction. The paper's quality study harvests two signals from 72
// recruited Facebook users: (1) the friendship graph, which is stable
// over time and feeds the static affinity affS(u,u') = |friends(u) ∩
// friends(u')|, and (2) timestamped page-likes over Facebook's 197
// page categories, which feed the periodic affinity affP(u,u',p) =
// |page_like_categories(u,p) ∩ page_like_categories(u',p)|.
//
// Since the study data is private, this package implements a synthetic
// network with the same structure: community-clustered friendships and
// bursty, drifting page-like streams, calibrated so that two-month
// periods are around 2/3 non-empty (Figure 4 of the paper).
package social

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"

	"repro/internal/dataset"
)

// NumFacebookCategories is the number of page categories Facebook
// exposed at the time of the study (the paper reports 197).
const NumFacebookCategories = 197

// PageLike records one page-like event: user u liked a page of the
// given category at time Time (Unix seconds). Page identities are never
// stored, matching the paper's privacy setup which only records the
// category and timestamp.
type PageLike struct {
	User     dataset.UserID
	Category int
	Time     int64
}

// CategorySet is a fixed-size bitset over page categories, sized for
// the 197 Facebook categories. Intersections are popcount-cheap, which
// keeps whole-population periodic-affinity averages fast.
type CategorySet [4]uint64

// Add sets category c.
func (cs *CategorySet) Add(c int) {
	if c < 0 || c >= 256 {
		panic(fmt.Sprintf("social: category %d out of range", c))
	}
	cs[c>>6] |= 1 << (uint(c) & 63)
}

// Count returns the number of categories present.
func (cs CategorySet) Count() int {
	return bits.OnesCount64(cs[0]) + bits.OnesCount64(cs[1]) +
		bits.OnesCount64(cs[2]) + bits.OnesCount64(cs[3])
}

// IntersectCount returns |cs ∩ o| — the paper's periodic affinity
// before normalization.
func (cs CategorySet) IntersectCount(o CategorySet) int {
	return bits.OnesCount64(cs[0]&o[0]) + bits.OnesCount64(cs[1]&o[1]) +
		bits.OnesCount64(cs[2]&o[2]) + bits.OnesCount64(cs[3]&o[3])
}

// Network is an immutable social network: a friendship graph plus
// per-user page-like event streams. Build one with GenerateNetwork,
// LoadNetwork or, from edges and likes in hand, NewNetwork.
type Network struct {
	numUsers int
	// friends[u] is u's friend list in ascending ID order.
	friends [][]dataset.UserID
	// likes[u] is user u's page-like stream sorted by time.
	likes [][]PageLike
}

// NewNetwork builds the network over n users (IDs 0..n-1) from its
// friendship edges and page-like events in one call. Each edge is a
// mutual friendship; a repeated one counts once. Each user's likes keep
// their order in likes, then are sorted by time. A non-positive n, an
// out-of-range user, a self-edge or a category outside
// [0, NumFacebookCategories) is a caller bug and panics. Neither slice
// is kept.
func NewNetwork(n int, friendships [][2]dataset.UserID, likes []PageLike) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("social: NewNetwork with non-positive size %d", n))
	}
	nw := &Network{numUsers: n, friends: make([][]dataset.UserID, n), likes: make([][]PageLike, n)}
	for _, e := range friendships {
		u, v := e[0], e[1]
		nw.checkUser(u)
		nw.checkUser(v)
		if u == v {
			panic("social: self-friendship")
		}
		nw.friends[u] = append(nw.friends[u], v)
		nw.friends[v] = append(nw.friends[v], u)
	}
	for u, fs := range nw.friends {
		slices.Sort(fs)
		nw.friends[u] = slices.Compact(fs)
	}
	for _, l := range likes {
		nw.checkUser(l.User)
		if l.Category < 0 || l.Category >= NumFacebookCategories {
			panic(fmt.Sprintf("social: category %d outside [0,%d)", l.Category, NumFacebookCategories))
		}
		nw.likes[l.User] = append(nw.likes[l.User], l)
	}
	for _, ls := range nw.likes {
		sort.Slice(ls, func(i, j int) bool { return ls[i].Time < ls[j].Time })
	}
	return nw
}

// NumUsers returns the population size.
func (nw *Network) NumUsers() int { return nw.numUsers }

// AreFriends reports whether u and v are friends.
func (nw *Network) AreFriends(u, v dataset.UserID) bool {
	nw.checkUser(u)
	nw.checkUser(v)
	_, ok := slices.BinarySearch(nw.friends[u], v)
	return ok
}

// Friends returns u's friend list in ascending ID order (shared slice).
func (nw *Network) Friends(u dataset.UserID) []dataset.UserID {
	nw.checkUser(u)
	return nw.friends[u]
}

// CommonFriends returns |friends(u) ∩ friends(v)| — the paper's raw
// static affinity (§4.1.2) — as a merge count of the two sorted lists.
func (nw *Network) CommonFriends(u, v dataset.UserID) int {
	nw.checkUser(u)
	nw.checkUser(v)
	a, b := nw.friends[u], nw.friends[v]
	n := 0
	for len(a) > 0 && len(b) > 0 {
		if a[0] == b[0] {
			n++
		}
		if a[0] <= b[0] {
			a = a[1:]
		} else {
			b = b[1:]
		}
	}
	return n
}

// Likes returns u's like stream sorted by time (shared slice).
func (nw *Network) Likes(u dataset.UserID) []PageLike {
	nw.checkUser(u)
	return nw.likes[u]
}

// NumLikes returns the total number of like events in the network.
func (nw *Network) NumLikes() int {
	n := 0
	for _, ls := range nw.likes {
		n += len(ls)
	}
	return n
}

// CategoriesIn returns the set of categories u liked during [from, to)
// — page_likes(u, p) in the paper's notation.
func (nw *Network) CategoriesIn(u dataset.UserID, from, to int64) CategorySet {
	nw.checkUser(u)
	var cs CategorySet
	ls := nw.likes[u]
	i := sort.Search(len(ls), func(i int) bool { return ls[i].Time >= from })
	for ; i < len(ls) && ls[i].Time < to; i++ {
		cs.Add(ls[i].Category)
	}
	return cs
}

// HasLikesIn reports whether u liked at least one page during [from, to).
func (nw *Network) HasLikesIn(u dataset.UserID, from, to int64) bool {
	nw.checkUser(u)
	ls := nw.likes[u]
	i := sort.Search(len(ls), func(i int) bool { return ls[i].Time >= from })
	return i < len(ls) && ls[i].Time < to
}

func (nw *Network) checkUser(u dataset.UserID) {
	if int(u) < 0 || int(u) >= nw.numUsers {
		panic(fmt.Sprintf("social: user %d outside population of %d", u, nw.numUsers))
	}
}
