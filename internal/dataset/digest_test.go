package dataset

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// benchStoreDigest is the SHA-256 of the bench world's frozen rating
// store: every ByUser row in Users order, then every item's rater
// column in Items order read back as ratings (raterRatings), each rating
// as its user, item, value bits and time in little-endian 64-bit words,
// then PopularityRanked.
const benchStoreDigest = "0817cf3461feba502a6c4a79afde9b86c90145abf4519f4f247e0289e1d16375"

// The freeze's sorts lay out the bench world's store the same bytes on
// every change: a stable sort under one key has exactly one result.
func TestBenchStoreDigest(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Users, cfg.Items, cfg.TargetRatings = 2000, 1500, 150_000
	sy, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := sy.Store
	h := sha256.New()
	var buf [8]byte
	put := func(x uint64) {
		binary.LittleEndian.PutUint64(buf[:], x)
		h.Write(buf[:])
	}
	row := func(rs []Rating) {
		put(uint64(len(rs)))
		for _, r := range rs {
			put(uint64(r.User))
			put(uint64(r.Item))
			put(math.Float64bits(r.Value))
			put(uint64(r.Time))
		}
	}
	for _, u := range st.Users() {
		row(st.ByUser(u))
	}
	for _, it := range st.Items() {
		row(raterRatings(st, it))
	}
	for _, it := range st.PopularityRanked() {
		put(uint64(it))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != benchStoreDigest {
		t.Errorf("bench store digest %s, want %s", got, benchStoreDigest)
	}
}

// raterRatings reads item it's rater column back as one Rating per
// entry, in column order.
func raterRatings(s *Store, it ItemID) []Rating {
	c, users := s.Raters(it), s.Users()
	out := make([]Rating, c.Len())
	for k, pos := range c.Pos {
		out[k] = Rating{User: users[pos], Item: it, Value: c.Value[k], Time: c.Time[k]}
	}
	return out
}
