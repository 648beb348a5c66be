package social

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/dataset"
)

func TestNetworkCSVRoundTrip(t *testing.T) {
	sn, err := GenerateNetwork(DefaultSynthConfig())
	if err != nil {
		t.Fatal(err)
	}
	var fr, pl bytes.Buffer
	if err := WriteFriendships(&fr, sn.Network); err != nil {
		t.Fatalf("WriteFriendships: %v", err)
	}
	if err := WritePageLikes(&pl, sn.Network); err != nil {
		t.Fatalf("WritePageLikes: %v", err)
	}
	loaded, err := LoadNetwork(sn.Network.NumUsers(), &fr, &pl)
	if err != nil {
		t.Fatalf("LoadNetwork: %v", err)
	}
	if loaded.NumLikes() != sn.Network.NumLikes() {
		t.Fatalf("likes lost: %d vs %d", loaded.NumLikes(), sn.Network.NumLikes())
	}
	for u := 0; u < sn.Network.NumUsers(); u++ {
		for v := u + 1; v < sn.Network.NumUsers(); v++ {
			a := sn.Network.AreFriends(dataset.UserID(u), dataset.UserID(v))
			b := loaded.AreFriends(dataset.UserID(u), dataset.UserID(v))
			if a != b {
				t.Fatalf("friendship (%d,%d) lost in round trip", u, v)
			}
		}
	}
	// Periodic affinity derived from likes must survive exactly.
	p0, p1 := sn.Config.Start, sn.Config.Start+60*24*3600
	for u := 0; u < 10; u++ {
		for v := u + 1; v < 10; v++ {
			a := sn.Network.CategoriesIn(dataset.UserID(u), p0, p1).IntersectCount(sn.Network.CategoriesIn(dataset.UserID(v), p0, p1))
			b := loaded.CategoriesIn(dataset.UserID(u), p0, p1).IntersectCount(loaded.CategoriesIn(dataset.UserID(v), p0, p1))
			if a != b {
				t.Fatalf("periodic affinity (%d,%d) changed: %d vs %d", u, v, a, b)
			}
		}
	}
}

func TestLoadNetworkRejectsMalformed(t *testing.T) {
	cases := []struct {
		name        string
		friendships string
		likes       string
	}{
		{"bad edge count", "user_a,user_b\n1,2,3\n", ""},
		{"self edge", "user_a,user_b\n1,1\n", ""},
		{"edge out of range", "user_a,user_b\n1,99\n", ""},
		{"bad number mid-file", "user_a,user_b\n1,2\nx,3\n", ""},
		{"bad like category", "", "user,category,timestamp\n1,999,5\n"},
		{"bad like user", "", "user,category,timestamp\n99,5,5\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var fr, pl *strings.Reader
			if tc.friendships != "" {
				fr = strings.NewReader(tc.friendships)
			}
			if tc.likes != "" {
				pl = strings.NewReader(tc.likes)
			}
			var frR, plR = ioReaderOrNil(fr), ioReaderOrNil(pl)
			if _, err := LoadNetwork(10, frR, plR); err == nil {
				t.Errorf("accepted malformed input")
			}
		})
	}
}

// ioReaderOrNil keeps a typed-nil *strings.Reader from becoming a
// non-nil io.Reader interface.
func ioReaderOrNil(r *strings.Reader) (out interface {
	Read([]byte) (int, error)
}) {
	if r == nil {
		return nil
	}
	return r
}

func TestLoadNetworkWithoutHeader(t *testing.T) {
	// Headerless files are accepted (the first line parses as data).
	nw, err := LoadNetwork(5, strings.NewReader("0,1\n2,3\n"), strings.NewReader("0,5,100\n"))
	if err != nil {
		t.Fatalf("LoadNetwork: %v", err)
	}
	if !nw.AreFriends(0, 1) || !nw.AreFriends(2, 3) {
		t.Errorf("edges missing")
	}
	if nw.NumLikes() != 1 {
		t.Errorf("likes = %d", nw.NumLikes())
	}
}
