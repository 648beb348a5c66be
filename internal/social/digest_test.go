package social

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// benchNetworkDigest is the SHA-256 of the bench world's generated
// network (600 users, 50 communities, the default seed) written as
// WriteFriendships followed by WritePageLikes.
const benchNetworkDigest = "dc980409d1554577d7ba20072139a687ea827bb5de9e1f8c703bc911a2f7701a"

// The one-call constructor lays out the bench network's friend lists and
// like streams as the same CSV bytes on every change.
func TestBenchNetworkDigest(t *testing.T) {
	cfg := DefaultSynthConfig()
	cfg.Users, cfg.Communities = 600, 50
	sn, err := GenerateNetwork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFriendships(&buf, sn.Network); err != nil {
		t.Fatal(err)
	}
	if err := WritePageLikes(&buf, sn.Network); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	if got := hex.EncodeToString(sum[:]); got != benchNetworkDigest {
		t.Errorf("bench network digest %s, want %s", got, benchNetworkDigest)
	}
}
