package dataset

import (
	"fmt"
	"slices"
	"strings"
	"testing"
)

// FuzzLoadMovieLensRatings asserts the ratings parser never panics and
// that accepted inputs are fully consistent: every parsed rating is in
// range and queryable, and Value answers the first observation of a
// (user, item) pair rated more than once.
func FuzzLoadMovieLensRatings(f *testing.F) {
	f.Add("1::2::3::4\n")
	f.Add("1::2::3::4\n5::6::1::0\n")
	f.Add("")
	f.Add("::::\n")
	f.Add("1::2::5.5::4\n")
	f.Add("1::1::NaN::100\n2::1::4::101\n")
	f.Add("-1::-2::3::-4\n")
	f.Add("1::2::3::4::5\n")
	f.Add(strings.Repeat("9::9::5::9\n", 3))
	f.Add("9::9::1::0\n0::0::1::0\n9::9::2::0")
	f.Fuzz(func(t *testing.T, input string) {
		store, err := LoadMovieLensRatings(strings.NewReader(input))
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, u := range store.Users() {
			row := store.ByUser(u)
			for i, r := range row {
				if !(r.Value >= 1 && r.Value <= 5) {
					t.Fatalf("accepted out-of-range rating %v", r.Value)
				}
				first := i
				for first > 0 && row[first-1].Item == r.Item {
					first--
				}
				if v, ok := store.Value(u, r.Item); !ok || v != row[first].Value {
					t.Fatalf("accepted rating not queryable: %+v (Value = %v, %v; first observation %v)", r, v, ok, row[first].Value)
				}
			}
		}
	})
}

// fuzzItemDomains map a small item number k onto the three ID layouts
// the item index takes: dense from 0, dense across 0 from below, and
// spread 2^59 apart — a span above 2^62 that only the map layout holds.
var fuzzItemDomains = []func(k int) ItemID{
	func(k int) ItemID { return ItemID(k) },
	func(k int) ItemID { return ItemID(k - 5) },
	func(k int) ItemID { return ItemID(-1<<62 + k<<59) },
}

// FuzzUnratedPopularMatchesFilter derives a base and a rating sequence
// over 8 users and 10 items from the input; the first byte picks the
// item domain and the base length, the second the group and the cut.
// Frozen and after every Apply, UnratedPopular must equal the
// popularity ranking filtered by one Value lookup per member.
func FuzzUnratedPopularMatchesFilter(f *testing.F) {
	f.Add([]byte{0x20, 0x13, 1, 2, 3, 1, 2, 4, 3, 3, 3, 1, 2, 0, 7, 9, 4})
	f.Add([]byte{0x41, 0xf5, 0, 0, 4, 0, 0, 1, 0, 0, 2, 5, 9, 0, 0, 0, 3, 1, 1, 1})
	f.Add([]byte{0x12, 0x07, 7, 9, 1, 6, 8, 2, 7, 9, 3, 7, 9, 4, 0, 9, 4, 7, 0, 5})
	f.Add([]byte{0x32, 0xff, 0, 0, 1, 0, 1, 1, 1, 2, 1, 2, 3, 1, 0, 4, 1, 3, 5, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 5 {
			return
		}
		domain := fuzzItemDomains[int(data[0]&0x0f)%len(fuzzItemDomains)]
		var log []Rating
		for i := 2; i+2 < len(data) && len(log) < 64; i += 3 {
			log = append(log, Rating{
				User:  UserID(data[i] % 8),
				Item:  domain(int(data[i+1] % 10)),
				Value: float64(1 + data[i+2]%5),
				Time:  int64(len(log)),
			})
		}
		nBase := 1 + int(data[0]>>4)%len(log)
		s := freezeStore(t, log[:nBase])
		// The group: the users whose bit is set in the low nibble, plus
		// user 8, whom the store never holds; the high nibble is the cut.
		group := []UserID{8}
		for u := 0; u < 4; u++ {
			if data[1]>>u&1 == 1 {
				group = append(group, UserID(2*u))
			}
		}
		n := int(data[1]>>4) - 2
		check := func(tag string) {
			t.Helper()
			if got, want := s.UnratedPopular(group, n), unratedByLookups(s, group, n); !slices.Equal(got, want) {
				t.Fatalf("%s: UnratedPopular(%v, %d) = %v, the lookup filter gives %v", tag, group, n, got, want)
			}
		}
		check("frozen")
		for _, r := range log[nBase:] {
			if s.Apply(r) == nil {
				check(fmt.Sprintf("after %+v", r))
			}
		}
	})
}
