package repro

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/social"
)

// bootWay is one way of building a world: cfg returns a fresh
// configuration each call, since a reader is consumed by one boot.
type bootWay struct {
	name string
	cfg  func() Config
}

// bootWays are the three ways a world boots — generated, from readers
// (the generated world's ratings and network, serialized) and from a
// snapshot's rating log — over the same data.
func bootWays(t *testing.T) []bootWay {
	t.Helper()
	gen, err := NewWorld(tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	var ratings, friendships, likes bytes.Buffer
	if err := dataset.WriteMovieLensRatings(&ratings, gen.Ratings()); err != nil {
		t.Fatal(err)
	}
	if err := social.WriteFriendships(&friendships, gen.SocialNetwork()); err != nil {
		t.Fatal(err)
	}
	if err := social.WritePageLikes(&likes, gen.SocialNetwork()); err != nil {
		t.Fatal(err)
	}
	dump := gen.Ratings().DumpRatings()
	return []bootWay{
		{"generated", tinyConfig},
		{"readers", func() Config {
			cfg := tinyConfig()
			cfg.RatingsReader = bytes.NewReader(ratings.Bytes())
			cfg.FriendshipsReader = bytes.NewReader(friendships.Bytes())
			cfg.PageLikesReader = bytes.NewReader(likes.Bytes())
			return cfg
		}},
		{"snapshot", func() Config {
			cfg := tinyConfig()
			cfg.snapshotRatings = dump
			return cfg
		}},
	}
}

// storeBytes is every rating of s, in the store's canonical order.
func storeBytes(s *dataset.Store) []byte {
	var b []byte
	for _, r := range s.DumpRatings() {
		b = binary.LittleEndian.AppendUint64(b, uint64(r.User))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Item))
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(r.Value))
		b = binary.LittleEndian.AppendUint64(b, uint64(r.Time))
	}
	return b
}

// networkBytes is nw's friendships and page-likes as datagen writes them.
func networkBytes(t *testing.T, nw *social.Network) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := social.WriteFriendships(&b, nw); err != nil {
		t.Fatal(err)
	}
	if err := social.WritePageLikes(&b, nw); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// worldBytes is what a world serves, as bytes: its fingerprint, every
// rating, its network, the static and every period's discrete affinity
// of every participant pair, and the recommendations for a few groups.
func worldBytes(t *testing.T, w *World) []byte {
	t.Helper()
	b := binary.LittleEndian.AppendUint64(nil, w.ConfigFingerprint())
	b = append(b, storeBytes(w.Ratings())...)
	b = append(b, networkBytes(t, w.SocialNetwork())...)
	ps := w.Participants()
	for i, u := range ps {
		for _, v := range ps[i+1:] {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w.AffinityModel().StaticOf(u, v)))
			for p := range w.Timeline().NumPeriods() {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(w.AffinityModel().Discrete(u, v, p)))
			}
		}
	}
	for _, g := range [][]dataset.UserID{ps[:3], ps[10:14], ps[30:32]} {
		rec, err := w.Recommend(g, Options{K: 5, NumItems: 200})
		if err != nil {
			t.Fatalf("Recommend(%v): %v", g, err)
		}
		b = fmt.Appendf(b, "%v", rec)
	}
	return b
}

// TestBootWaysAreByteIdentical: whichever way a world boots, with its two
// arms run at once, it serves the bytes of the generated world, and each
// arm's result equals the same arm run alone, one after the other.
func TestBootWaysAreByteIdentical(t *testing.T) {
	ways := bootWays(t)
	var want []byte
	for _, way := range ways {
		w, err := NewWorld(way.cfg())
		if err != nil {
			t.Fatalf("%s: NewWorld: %v", way.name, err)
		}
		cfg := way.cfg()
		_, scfg, err := bootConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs := bootRatings(cfg, scfg)
		nw := bootNetwork(cfg, scfg)
		if rs.err != nil || nw.err != nil {
			t.Fatalf("%s: serial arms: %v, %v", way.name, rs.err, nw.err)
		}
		if !bytes.Equal(storeBytes(w.Ratings()), storeBytes(rs.store)) {
			t.Errorf("%s: the store differs from the ratings arm run alone", way.name)
		}
		if !bytes.Equal(networkBytes(t, w.SocialNetwork()), networkBytes(t, nw.net)) {
			t.Errorf("%s: the network differs from the network arm run alone", way.name)
		}
		if bt := w.BootTimes(); bt.Ratings <= 0 || bt.Network <= 0 || bt.UserPlane <= 0 || bt.Model <= 0 {
			t.Errorf("%s: a boot stage took no time: %+v", way.name, bt)
		}
		got := worldBytes(t, w)
		if want == nil {
			want = got
		} else if !bytes.Equal(got, want) {
			t.Errorf("%s: the world serves other bytes than the generated one", way.name)
		}
	}
}

// untouchedReader fails a test that reads it.
type untouchedReader struct{ reads atomic.Int32 }

func (r *untouchedReader) Read([]byte) (int, error) {
	r.reads.Add(1)
	return 0, errors.New("read")
}

// TestShardBackendFromConfigMatchesWorldBackend: a worker booted from
// its configuration alone carries the fingerprint and serves the view
// scores, bit for bit, of a backend wrapped around a whole world, for
// every way of booting; it builds no network, so social readers that
// fail on Read are never read.
func TestShardBackendFromConfigMatchesWorldBackend(t *testing.T) {
	for _, way := range bootWays(t) {
		cfg := way.cfg()
		cfg.Shards = 2
		w, err := NewWorld(cfg)
		if err != nil {
			t.Fatal(err)
		}
		users := w.Participants()
		// A few users beyond the participants, who are all a world
		// recommends for but not all a worker serves.
		users = append(users, w.Ratings().Users()[len(users):len(users)+20]...)
		want, err := NewShardBackend(w, []int{0, 1})
		if err != nil {
			t.Fatal(err)
		}

		cfg = way.cfg()
		cfg.Shards = 2
		friendships, likes := &untouchedReader{}, &untouchedReader{}
		cfg.FriendshipsReader, cfg.PageLikesReader = friendships, likes
		got, err := NewShardBackendFromConfig(cfg, []int{1, 0})
		if err != nil {
			t.Fatalf("%s: NewShardBackendFromConfig: %v", way.name, err)
		}
		if n := friendships.reads.Load() + likes.reads.Load(); n != 0 {
			t.Errorf("%s: the worker read its social readers %d times", way.name, n)
		}
		if got.Fingerprint() != want.Fingerprint() || got.Shards() != want.Shards() {
			t.Errorf("%s: fingerprint %016x over %d shards, want %016x over %d", way.name,
				got.Fingerprint(), got.Shards(), want.Fingerprint(), want.Shards())
		}
		if !slices.Equal(got.Owned(), []int{1, 0}) {
			t.Errorf("%s: owns %v", way.name, got.Owned())
		}
		if !bytes.Equal(storeBytes(got.Ratings()), storeBytes(want.Ratings())) {
			t.Errorf("%s: the worker's store differs from the world's", way.name)
		}
		if bt := got.BootTimes(); bt.Ratings <= 0 || bt.UserPlane <= 0 || bt.Network != 0 || bt.Model != 0 {
			t.Errorf("%s: worker boot stages %+v, want ratings and user plane only", way.name, bt)
		}
		for _, u := range users {
			a, errA := got.ViewScores(u)
			b, errB := want.ViewScores(u)
			if errA != nil || errB != nil {
				t.Fatalf("%s: ViewScores(%d): %v, %v", way.name, u, errA, errB)
			}
			if !slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
				t.Fatalf("%s: user %d: the worker's view scores differ from the world backend's", way.name, u)
			}
		}
	}
}

// failingReader fails its first Read with err, after delay.
type failingReader struct {
	err   error
	delay time.Duration
}

func (r failingReader) Read([]byte) (int, error) {
	time.Sleep(r.delay)
	return 0, r.err
}

// twoRaters is a rating log of two users, fewer than any social
// population tests boot.
const twoRaters = "1::1::5::978300000\n2::1::3::978300000\n"

var (
	errRatingsRead = errors.New("ratings read failed")
	errNetworkRead = errors.New("network read failed")
)

// TestBootErrorPrecedence: when both arms fail, or a check fails beside
// a failing arm, NewWorld reports the same error whichever arm finishes
// first: the ratings error, then the population check, then the reader
// pairing, then the network error. The worker's boot reports the same
// up to the network, which it never reads.
func TestBootErrorPrecedence(t *testing.T) {
	badRatings := func(cfg *Config) { cfg.RatingsReader = failingReader{err: errRatingsRead} }
	// The network arm fails late, so the ratings arm finishes first;
	// a ratings failure that comes late is the other order.
	badNetwork := func(cfg *Config) {
		cfg.FriendshipsReader = failingReader{err: errNetworkRead, delay: 20 * time.Millisecond}
		cfg.PageLikesReader = strings.NewReader("")
	}
	slowBadRatings := func(cfg *Config) {
		cfg.RatingsReader = failingReader{err: errRatingsRead, delay: 20 * time.Millisecond}
	}
	fastBadNetwork := func(cfg *Config) {
		cfg.FriendshipsReader = failingReader{err: errNetworkRead}
		cfg.PageLikesReader = strings.NewReader("")
	}
	halfReaders := func(cfg *Config) { cfg.FriendshipsReader = strings.NewReader("user_a,user_b\n") }
	oversized := func(cfg *Config) { cfg.RatingsReader = strings.NewReader(twoRaters) }
	const (
		ratingsMsg    = "repro: loading ratings: "
		populationMsg = "repro: social population"
		pairingMsg    = "repro: FriendshipsReader and PageLikesReader must be set together"
		networkMsg    = "repro: loading social network: "
	)
	tests := []struct {
		name      string
		set       []func(*Config)
		want      string
		sentinel  error
		workerErr string // "" when the worker boots
	}{
		{"ratings, then network", []func(*Config){badRatings, badNetwork}, ratingsMsg, errRatingsRead, ratingsMsg},
		{"network, then ratings", []func(*Config){slowBadRatings, fastBadNetwork}, ratingsMsg, errRatingsRead, ratingsMsg},
		{"ratings and half readers", []func(*Config){badRatings, halfReaders}, ratingsMsg, errRatingsRead, ratingsMsg},
		{"population and network", []func(*Config){oversized, badNetwork}, populationMsg, nil, populationMsg},
		{"population and half readers", []func(*Config){oversized, halfReaders}, populationMsg, nil, populationMsg},
		{"half readers", []func(*Config){halfReaders}, pairingMsg, nil, pairingMsg},
		{"network", []func(*Config){fastBadNetwork}, networkMsg, errNetworkRead, ""},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			for _, set := range tc.set {
				set(&cfg)
			}
			_, err := NewWorld(cfg)
			if err == nil || !strings.HasPrefix(err.Error(), tc.want) {
				t.Fatalf("NewWorld: %v, want an error starting %q", err, tc.want)
			}
			if tc.sentinel != nil && !errors.Is(err, tc.sentinel) {
				t.Errorf("NewWorld: %v does not wrap %v", err, tc.sentinel)
			}
			cfg = tinyConfig()
			for _, set := range tc.set {
				set(&cfg)
			}
			_, err = NewShardBackendFromConfig(cfg, []int{0})
			switch {
			case tc.workerErr == "" && err != nil:
				t.Errorf("NewShardBackendFromConfig: %v, want a worker", err)
			case tc.workerErr != "" && (err == nil || !strings.HasPrefix(err.Error(), tc.workerErr)):
				t.Errorf("NewShardBackendFromConfig: %v, want an error starting %q", err, tc.workerErr)
			}
		})
	}
}

// bootGoroutines lists the goroutines still inside a boot's network
// arm, or any goroutine NewWorld started, with its stack. No test in
// this package runs in parallel, so any it finds belongs to the boot
// under test.
func bootGoroutines() (inArm, started []string) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if strings.Contains(g, "repro.bootNetwork(") {
			inArm = append(inArm, g)
		}
		if strings.Contains(g, "created by repro.NewWorld") {
			started = append(started, g)
		}
	}
	return inArm, started
}

// TestNewWorldLeavesNoGoroutine: NewWorld joins its network arm before
// it returns, on success and on every error path — also when the other
// arm fails first and the network arm is still reading — so no
// goroutine it started outlives it.
func TestNewWorldLeavesNoGoroutine(t *testing.T) {
	slowNetwork := func(cfg *Config, err error) {
		cfg.FriendshipsReader = failingReader{err: err, delay: 30 * time.Millisecond}
		cfg.PageLikesReader = strings.NewReader("")
	}
	tests := []struct {
		name string
		set  func(*Config)
		ok   bool
	}{
		{"generated", func(*Config) {}, true},
		{"ratings fail while the network reads", func(cfg *Config) {
			cfg.RatingsReader = failingReader{err: errRatingsRead}
			slowNetwork(cfg, errNetworkRead)
		}, false},
		{"population fails while the network reads", func(cfg *Config) {
			cfg.RatingsReader = strings.NewReader(twoRaters)
			slowNetwork(cfg, errNetworkRead)
		}, false},
		{"half readers", func(cfg *Config) { cfg.PageLikesReader = strings.NewReader("") }, false},
		{"network fails", func(cfg *Config) { slowNetwork(cfg, errNetworkRead) }, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyConfig()
			tc.set(&cfg)
			_, err := NewWorld(cfg)
			if (err == nil) != tc.ok {
				t.Fatalf("NewWorld: %v", err)
			}
			// The arm has returned for certain once NewWorld has: its
			// goroutine signals the join after the arm's last line.
			if inArm, _ := bootGoroutines(); len(inArm) > 0 {
				t.Fatalf("a network arm is still running after NewWorld returned:\n%s", inArm[0])
			}
			// The goroutine itself exits right after that signal.
			deadline := time.Now().Add(5 * time.Second)
			for {
				_, started := bootGoroutines()
				if len(started) == 0 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("a goroutine NewWorld started outlived it:\n%s", started[0])
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
