package dataset

import (
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
