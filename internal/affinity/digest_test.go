package affinity

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/dataset"
)

// benchModelDigest is the SHA-256 of the bench network's model (600
// participants, 50 communities, TwoMonth): every period mean, then for
// each pair (i, j > i) in both argument orders its StaticOf and, per
// period, its DriftOf, Discrete and Continuous, each as little-endian
// float64 bits.
const benchModelDigest = "25096c96ef7379860d5fee3ad31304741d48fdf666ef4ebaa3a4c82496248627"

// Every value the bench world's model serves keeps its bytes, whatever
// computes the normalizers.
func TestBenchModelDigest(t *testing.T) {
	users, tl, src := benchNetwork(t)
	m, err := BuildModel(users, tl, src, src)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	put := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	for _, x := range m.AvgPeriodic {
		put(x)
	}
	for i, u := range m.Users {
		for _, v := range m.Users[i+1:] {
			for _, o := range [][2]dataset.UserID{{u, v}, {v, u}} {
				a, b := o[0], o[1]
				put(m.StaticOf(a, b))
				for k := range tl.NumPeriods() {
					put(m.DriftOf(a, b, k))
					put(m.Discrete(a, b, k))
					put(m.Continuous(a, b, k))
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != benchModelDigest {
		t.Errorf("bench model digest %s, want %s", got, benchModelDigest)
	}
}
