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

// FuzzReadMovies asserts the movies.dat parser never panics and keeps
// id→movie lookups consistent for accepted input.
func FuzzReadMovies(f *testing.F) {
	f.Add("1::Title (1999)::Drama|Comedy\n")
	f.Add("1::A::B\n2::C::D\n")
	f.Add("x::y::z\n")
	f.Add("1::Movie: Colons::Drama\n")
	f.Add("::::::\n")
	f.Fuzz(func(t *testing.T, input string) {
		md := NewMetadata()
		if err := md.ReadMovies(strings.NewReader(input)); err != nil {
			return
		}
		if md.NumMovies() < 0 {
			t.Fatal("negative movie count")
		}
	})
}

// FuzzReadUsers asserts the users.dat parser never panics.
func FuzzReadUsers(f *testing.F) {
	f.Add("1::F::25::3::12345\n")
	f.Add("1::M::1::0::00000\n2::F::56::20::99999\n")
	f.Add("1::Q::25::3::12345\n")
	f.Add("::::\n")
	f.Fuzz(func(t *testing.T, input string) {
		md := NewMetadata()
		if err := md.ReadUsers(strings.NewReader(input)); err != nil {
			return
		}
		for id := 0; id < md.NumUsers()+5; id++ {
			if u, ok := md.User(UserID(id)); ok {
				if u.Gender != GenderFemale && u.Gender != GenderMale {
					t.Fatalf("accepted bad gender %q", u.Gender)
				}
			}
		}
	})
}
