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
// per-user page-like event streams. Build one with GenerateNetwork or
// assemble manually with NewNetwork/AddFriendship/AddLike + Freeze.
type Network struct {
	numUsers int
	// friends[u] is u's friend list in ascending ID order.
	friends [][]dataset.UserID
	// likes[u] is user u's page-like stream sorted by time.
	likes  [][]PageLike
	frozen bool
}

// NewNetwork returns an empty network over n users (IDs 0..n-1).
func NewNetwork(n int) *Network {
	if n <= 0 {
		panic(fmt.Sprintf("social: NewNetwork with non-positive size %d", n))
	}
	return &Network{
		numUsers: n,
		friends:  make([][]dataset.UserID, n),
		likes:    make([][]PageLike, n),
	}
}

// NumUsers returns the population size.
func (nw *Network) NumUsers() int { return nw.numUsers }

// AddFriendship records a mutual friendship between u and v. Adding a
// self-edge or an out-of-range user is a caller bug and panics.
func (nw *Network) AddFriendship(u, v dataset.UserID) {
	nw.mustMutable("AddFriendship")
	nw.checkUser(u)
	nw.checkUser(v)
	if u == v {
		panic("social: self-friendship")
	}
	for _, edge := range [][2]dataset.UserID{{u, v}, {v, u}} {
		from, to := edge[0], edge[1]
		if i, found := slices.BinarySearch(nw.friends[from], to); !found {
			nw.friends[from] = slices.Insert(nw.friends[from], i, to)
		}
	}
}

// AddLike appends a page-like event.
func (nw *Network) AddLike(l PageLike) {
	nw.mustMutable("AddLike")
	nw.checkUser(l.User)
	if l.Category < 0 || l.Category >= NumFacebookCategories {
		panic(fmt.Sprintf("social: category %d outside [0,%d)", l.Category, NumFacebookCategories))
	}
	nw.likes[l.User] = append(nw.likes[l.User], l)
}

// Freeze sorts like streams by time and makes the network read-only.
func (nw *Network) Freeze() {
	if nw.frozen {
		return
	}
	for u := range nw.likes {
		ls := nw.likes[u]
		sort.Slice(ls, func(i, j int) bool { return ls[i].Time < ls[j].Time })
	}
	nw.frozen = true
}

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
	nw.mustFrozen("Likes")
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
	nw.mustFrozen("CategoriesIn")
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
	nw.mustFrozen("HasLikesIn")
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

func (nw *Network) mustMutable(op string) {
	if nw.frozen {
		panic("social: " + op + " on frozen Network")
	}
}

func (nw *Network) mustFrozen(op string) {
	if !nw.frozen {
		panic("social: " + op + " requires a frozen Network")
	}
}
