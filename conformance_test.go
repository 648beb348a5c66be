package repro_test

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"

	"repro"
	"repro/internal/dataset"
	"repro/internal/remote"
	"repro/internal/server"
	"repro/internal/shard"
)

// The write-plane conformance battery. The write plane is what a rating
// does to a world: AddRating's outcome, the replica bytes it leaves, the
// ingest and cache counters /v1/stats reports. It has two
// implementations, an in-process World and a router World whose user
// plane lives on loopback shard workers, and every case here runs one
// rating stream through both and checks they agree.

// writePlaneConfig is the world every process of the battery builds:
// small, so the race detector stays fast, over four shards.
func writePlaneConfig() repro.Config {
	cfg := repro.QuickConfig()
	cfg.Dataset.Users = 150
	cfg.Dataset.TargetRatings = 10_000
	cfg.Dataset.Items = 500
	cfg.Shards = 4
	return cfg
}

// writePlaneTopologies are the router fleets the battery runs against.
var writePlaneTopologies = []struct {
	name string
	owns [][]int
}{
	{"1 worker owning 4 shards", [][]int{{0, 1, 2, 3}}},
	{"2 workers owning {0,2} and {1,3}", [][]int{{0, 2}, {1, 3}}},
}

// errJournal is what failingJournal answers for a refused append.
var errJournal = errors.New("journal: no space left on device")

// failingJournal refuses the append of every rating whose time is a
// multiple of 7 — a disk that fails now and then, alike in both targets.
type failingJournal struct{}

func (failingJournal) Append(r dataset.Rating) error {
	if r.Time%7 == 0 {
		return errJournal
	}
	return nil
}

// writeTarget is one implementation of the write plane: a world, and on
// a router the workers that hold its user plane.
type writeTarget struct {
	world   *repro.World
	stats   string // the world's /v1/stats URL
	owns    [][]int
	workers []*repro.ShardBackend
	servers []*remote.Server
	set     *remote.ShardSet
}

// newInProcess builds the in-process target.
func newInProcess(t *testing.T) *writeTarget {
	t.Helper()
	w, err := repro.NewWorld(writePlaneConfig())
	if err != nil {
		t.Fatal(err)
	}
	return newTarget(t, w, &writeTarget{})
}

// newRouter builds a router target over loopback workers, one per
// ownership split, each booted from the same configuration.
func newRouter(t *testing.T, owns [][]int) *writeTarget {
	t.Helper()
	cfg := writePlaneConfig()
	fleet := repro.StartLoopbackFleet(t, owns, func(owned []int) (*repro.ShardBackend, error) {
		return repro.NewShardBackendFromConfig(cfg, owned)
	})
	w, err := repro.NewWorld(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AttachRemote(fleet.Set); err != nil {
		t.Fatal(err)
	}
	return newTarget(t, w, &writeTarget{owns: owns, workers: fleet.Backends, servers: fleet.Servers, set: fleet.Set})
}

// newTarget attaches the failing journal to w and serves its HTTP
// surface.
func newTarget(t *testing.T, w *repro.World, tg *writeTarget) *writeTarget {
	t.Helper()
	w.SetRatingLog(failingJournal{})
	srv := server.New(w, server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	tg.world, tg.stats = w, ts.URL+"/v1/stats"
	return tg
}

// ownerOf returns the index of the worker owning u's shard.
func (tg *writeTarget) ownerOf(t *testing.T, u dataset.UserID) int {
	t.Helper()
	m, err := shard.New(tg.world.Shards())
	if err != nil {
		t.Fatal(err)
	}
	sh := m.Of(int64(u))
	for i, owned := range tg.owns {
		if slices.Contains(owned, sh) {
			return i
		}
	}
	t.Fatalf("shard %d has no owner", sh)
	return -1
}

// writeStream is a random rating stream over w's users and items: mostly
// fresh ratings, with repeated (user, item) pairs and value-0,
// unknown-user and unknown-item ratings among them. Times count up from
// 1, so failingJournal refuses every seventh accepted-or-not rating.
func writeStream(w *repro.World, seed int64, n int) []dataset.Rating {
	rng := rand.New(rand.NewSource(seed))
	users, items := w.Ratings().Users(), w.Ratings().Items()
	out := make([]dataset.Rating, 0, n)
	for i := 0; i < n; i++ {
		r := dataset.Rating{
			User:  users[rng.Intn(len(users))],
			Item:  items[rng.Intn(len(items))],
			Value: float64(1 + rng.Intn(5)),
			Time:  int64(len(out) + 1),
		}
		switch k := rng.Intn(10); {
		case k == 0:
			r.Value = 0
		case k == 1:
			r.User = 1 << 40
		case k == 2:
			r.Item = 1 << 40
		case k <= 4 && len(out) > 0:
			prev := out[rng.Intn(len(out))]
			r.User, r.Item = prev.User, prev.Item
		}
		out = append(out, r)
	}
	return out
}

// outcomes tallies a stream's results by kind.
type outcomes struct{ applied, journalFailed, rejected int }

// addBoth ingests r into both targets and fails unless they answer
// alike: both nil, or both the same dataset rejection, or both the
// journal's error. It reports whether r is in the stores.
func addBoth(t *testing.T, inproc, router *writeTarget, r dataset.Rating, n *outcomes) bool {
	t.Helper()
	errIn, errR := inproc.world.AddRating(r), router.world.AddRating(r)
	if (errIn == nil) != (errR == nil) {
		t.Fatalf("rating %+v: in-process %v, router %v", r, errIn, errR)
	}
	if errIn == nil {
		n.applied++
		return true
	}
	matched := 0
	for _, want := range []error{dataset.ErrBadValue, dataset.ErrUnknownUser, dataset.ErrUnknownItem, errJournal} {
		if errors.Is(errIn, want) != errors.Is(errR, want) {
			t.Fatalf("rating %+v: in-process %v, router %v: not the same error", r, errIn, errR)
		}
		if errors.Is(errIn, want) {
			matched++
		}
	}
	if matched != 1 {
		t.Fatalf("rating %+v refused with %v, want one dataset sentinel or the journal error", r, errIn)
	}
	if errors.Is(errIn, errJournal) {
		n.journalFailed++
		return true
	}
	n.rejected++
	return false
}

// checkTargets holds router to inproc: every live worker's replica and
// the router's hold the in-process bytes; every participant's view
// scores are the in-process view's bit for bit, or ErrShardUnavailable
// on the shards of a dead worker; /v1/stats has the in-process key set
// and reports wantMisses fan-out misses; and the router's cache counters
// are its own list store, the deployment's one view cache, and its own
// neighborhoods plus the live workers'.
func checkTargets(t *testing.T, inproc, router *writeTarget, dead map[int]bool, wantMisses uint64) {
	t.Helper()
	want := inproc.world.Ratings().DumpRatings()
	if got := router.world.Ratings().DumpRatings(); !reflect.DeepEqual(got, want) {
		t.Errorf("the router's replica differs from the in-process store")
	}
	for i, b := range router.workers {
		if dead[i] {
			continue
		}
		if got := b.Ratings().DumpRatings(); !reflect.DeepEqual(got, want) {
			t.Errorf("worker %d's replica differs from the router's", i)
		}
	}

	for _, u := range inproc.world.Participants() {
		got, err := router.world.ViewScores(u)
		if dead[router.ownerOf(t, u)] {
			if !errors.Is(err, remote.ErrShardUnavailable) {
				t.Errorf("user %d on a dead worker's shard: err = %v, want ErrShardUnavailable", u, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("router view of %d: %v", u, err)
		}
		wantScores, err := inproc.world.ViewScores(u)
		if err != nil {
			t.Fatalf("in-process view of %d: %v", u, err)
		}
		if !slices.EqualFunc(got, wantScores, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
			t.Errorf("user %d: router view scores differ from the in-process view's", u)
		}
	}

	inKeys, _ := statsKeys(t, inproc.stats)
	routerKeys, misses := statsKeys(t, router.stats)
	if !slices.Equal(inKeys, routerKeys) {
		t.Errorf("/v1/stats key sets differ\nin-process %v\nrouter     %v", inKeys, routerKeys)
	}
	if misses != wantMisses {
		t.Errorf("ingest.fanout_misses = %d, want %d", misses, wantMisses)
	}

	if got, own := inproc.world.CacheStats(), inproc.world.PlaneStats(); got != own {
		t.Errorf("in-process CacheStats %+v, want its own plane's %+v", got, own)
	}
	own := router.world.PlaneStats()
	nb := own.Neighborhoods
	for i, b := range router.workers {
		if !dead[i] {
			nb.Add(b.Stats().Neighborhoods)
		}
	}
	got := router.world.CacheStats()
	if got.ListStore != own.ListStore {
		t.Errorf("router CacheStats().ListStore = %+v, want the router's own store %+v", got.ListStore, own.ListStore)
	}
	if got.Neighborhoods != nb {
		t.Errorf("router CacheStats().Neighborhoods = %+v, want the live workers' sum plus the router's own %+v", got.Neighborhoods, nb)
	}
}

// statsKeys reads a /v1/stats document and returns its sorted leaf
// paths and its ingest.fanout_misses.
func statsKeys(t *testing.T, url string) ([]string, uint64) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		m, ok := v.(map[string]any)
		if !ok {
			keys = append(keys, prefix)
			return
		}
		for k, c := range m {
			walk(prefix+"."+k, c)
		}
	}
	walk("", doc)
	sort.Strings(keys)
	misses, _ := doc["ingest"].(map[string]any)["fanout_misses"].(float64)
	return keys, uint64(misses)
}

// TestWritePlaneConformance runs one random stream through an in-process
// world and through a router over each topology: every rating is
// accepted or refused alike, and afterwards every replica holds the same
// bytes, every view the same scores, /v1/stats the same keys with no
// fan-out miss, and the router's cache counters are its own store and
// the neighborhoods of both sides.
func TestWritePlaneConformance(t *testing.T) {
	for _, top := range writePlaneTopologies {
		t.Run(top.name, func(t *testing.T) {
			inproc, router := newInProcess(t), newRouter(t, top.owns)
			checkTargets(t, inproc, router, nil, 0)
			var n outcomes
			for _, r := range writeStream(inproc.world, 1, 150) {
				addBoth(t, inproc, router, r, &n)
			}
			if n.applied == 0 || n.journalFailed == 0 || n.rejected == 0 {
				t.Fatalf("stream outcomes %+v: want each kind", n)
			}
			checkTargets(t, inproc, router, nil, 0)
		})
	}
}

// TestWritePlaneConformanceWorkerDeath stops one worker mid-stream.
// AddRating answers as before; every rating for a user the dead worker
// owned is one fan-out miss and no other rating is; the dead worker's
// shards answer ErrShardUnavailable while the live shards serve the
// in-process bytes. The first rating after the death is a live
// worker's, so a miss counted for the dead bystander would show.
func TestWritePlaneConformanceWorkerDeath(t *testing.T) {
	for _, top := range writePlaneTopologies {
		t.Run(top.name, func(t *testing.T) {
			inproc, router := newInProcess(t), newRouter(t, top.owns)
			stream := writeStream(inproc.world, 2, 160)
			var n outcomes
			for _, r := range stream[:80] {
				addBoth(t, inproc, router, r, &n)
			}
			router.servers[0].Close()

			after := stream[80:]
			if len(top.owns) > 1 {
				for _, u := range inproc.world.Participants() {
					if router.ownerOf(t, u) != 0 {
						live := dataset.Rating{User: u, Item: inproc.world.Ratings().Items()[0], Value: 3, Time: 1000}
						after = append([]dataset.Rating{live}, after...)
						break
					}
				}
			}
			var accepted, misses uint64
			for _, r := range after {
				if addBoth(t, inproc, router, r, &n) {
					accepted++
					if router.ownerOf(t, r.User) == 0 {
						misses++
					}
				}
			}
			if misses == 0 || (len(top.owns) > 1 && misses == accepted) {
				t.Fatalf("%d of %d ratings after the death were the dead worker's: the stream must reach every worker", misses, accepted)
			}
			checkTargets(t, inproc, router, map[int]bool{0: true}, misses)
		})
	}
}

// TestShardSetConcurrentApplies calls ShardSet.Apply from 8 goroutines,
// 50 ratings each, on two workers: the set delivers one order, so no
// worker is fenced, no apply is a miss, and both replicas hold the same
// bytes.
func TestShardSetConcurrentApplies(t *testing.T) {
	tg := newRouter(t, [][]int{{0, 2}, {1, 3}})
	users, items := tg.world.Ratings().Users(), tg.world.Ratings().Items()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 50; i++ {
				r := dataset.Rating{User: users[rng.Intn(len(users))], Item: items[rng.Intn(len(items))], Value: float64(1 + rng.Intn(5)), Time: int64(i)}
				if err := tg.set.Apply(r); err != nil {
					t.Errorf("goroutine %d apply %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := tg.set.TransportStats().FanoutMisses; got != 0 {
		t.Errorf("%d fan-out misses, want 0", got)
	}
	want := tg.workers[0].Ratings().DumpRatings()
	if got := tg.workers[1].Ratings().DumpRatings(); !reflect.DeepEqual(got, want) {
		t.Errorf("the two replicas differ after concurrent applies")
	}
	if n := len(want) - len(tg.world.Ratings().DumpRatings()); n != 400 {
		t.Errorf("replicas hold %d more ratings than the router, want 400", n)
	}
	for wi := range tg.workers {
		for _, u := range users {
			if tg.ownerOf(t, u) != wi {
				continue
			}
			pool, err := tg.workers[wi].ViewScores(u)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tg.set.ViewScoresMulti([]dataset.UserID{u}, len(pool)); err != nil {
				t.Errorf("worker %d fenced: %v", wi, err)
			}
			break
		}
	}
}

// TestAttachRemoteRefusesShardCountMismatch: a router checks the
// topology's shard count once, in ShardSet.Handshake, before it dials
// any worker.
func TestAttachRemoteRefusesShardCountMismatch(t *testing.T) {
	w, err := repro.NewWorld(writePlaneConfig())
	if err != nil {
		t.Fatal(err)
	}
	set, err := remote.NewShardSet(remote.Topology{Shards: 2, Workers: []remote.Worker{{Addr: "127.0.0.1:1", Owns: []int{0, 1}}}}, remote.ClientConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	if err := w.AttachRemote(set); !errors.Is(err, remote.ErrConfigMismatch) {
		t.Fatalf("AttachRemote of a 2-shard topology to a 4-shard world: err = %v, want ErrConfigMismatch", err)
	}
	if w.RemoteStats().Attached {
		t.Errorf("a refused fleet is attached")
	}
}
