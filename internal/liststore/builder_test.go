package liststore

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
)

// scriptedBuilder is a Builder under the test's control: it records
// every call's users, can hold a call open until released (an in-flight
// fetch), and can fail.
type scriptedBuilder struct {
	poolLen int

	mu    sync.Mutex
	calls [][]dataset.UserID
	err   error
	// entered receives once per call when non-nil; gate, when non-nil,
	// blocks every call until closed.
	entered chan struct{}
	gate    chan struct{}
}

func (b *scriptedBuilder) build(users []dataset.UserID) ([]*View, error) {
	b.mu.Lock()
	b.calls = append(b.calls, append([]dataset.UserID(nil), users...))
	err, entered, gate := b.err, b.entered, b.gate
	b.mu.Unlock()
	if entered != nil {
		entered <- struct{}{}
	}
	if gate != nil {
		<-gate
	}
	if err != nil {
		return nil, err
	}
	out := make([]*View, len(users))
	for i, u := range users {
		scores := make([]float64, b.poolLen)
		for p := range scores {
			scores[p] = float64(u) + float64(p)/100
		}
		out[i] = NewView(scores)
	}
	return out, nil
}

func (b *scriptedBuilder) callLog() [][]dataset.UserID {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([][]dataset.UserID(nil), b.calls...)
}

// TestAcquireMultiOneBuilderCallCarriesTheMisses pins the batch seam:
// residents are served without the builder, and all of one call's
// misses arrive in exactly one builder call, in request order.
func TestAcquireMultiOneBuilderCallCarriesTheMisses(t *testing.T) {
	b := &scriptedBuilder{poolLen: 4}
	s := NewOver(b.build, testPool(4), 32)

	if _, err := s.AcquireMulti([]dataset.UserID{3, 9}); err != nil {
		t.Fatal(err)
	}
	views, err := s.AcquireMulti([]dataset.UserID{7, 3, 1, 9, 5})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]dataset.UserID{{3, 9}, {7, 1, 5}}
	if got := b.callLog(); !reflect.DeepEqual(got, want) {
		t.Errorf("builder calls = %v, want %v", got, want)
	}
	for i, u := range []dataset.UserID{7, 3, 1, 9, 5} {
		if views[i].Scores[0] != float64(u) {
			t.Errorf("slot %d holds user %v's view, want %d's", i, views[i].Scores[0], u)
		}
	}
	if _, err := s.AcquireMulti([]dataset.UserID{1, 3}); err != nil {
		t.Fatal(err)
	}
	if got := len(b.callLog()); got != 2 {
		t.Errorf("an all-resident acquire reached the builder (%d calls)", got)
	}
	if st := s.Stats(); st.ViewBuilds != 5 || st.ViewHits != 4 || st.Size != 5 {
		t.Errorf("stats = %d builds / %d hits / %d resident, want 5 / 4 / 5", st.ViewBuilds, st.ViewHits, st.Size)
	}
}

// TestSweepUnlinksInFlightFetch pins the ingest fence: an ingest's sweep
// that runs while a fetch is in flight unlinks the mid-build entry, so
// the late result reaches the acquirers already waiting on it and is
// never resident — the next acquire fetches again.
func TestSweepUnlinksInFlightFetch(t *testing.T) {
	b := &scriptedBuilder{poolLen: 3, entered: make(chan struct{}, 4), gate: make(chan struct{})}
	s := NewOver(b.build, testPool(3), 8)

	results := make(chan *View, 2)
	acquireSix := func() {
		v, err := acquire(s, 6)
		if err != nil {
			t.Error(err)
		}
		results <- v
	}
	go acquireSix()
	<-b.entered // the fetch is in flight, its entry linked mid-build
	go acquireSix()
	// The second acquirer joins the same entry (a hit, not a build);
	// wait until it has.
	for s.Stats().ViewHits == 0 {
		runtime.Gosched()
	}

	if dropped := s.InvalidateAll(); dropped != 1 {
		t.Fatalf("sweep dropped %d entries, want the 1 mid-build", dropped)
	}
	close(b.gate)
	first, second := <-results, <-results
	if first == nil || first != second {
		t.Fatalf("waiters got %p and %p, want the one late view", first, second)
	}
	if s.Len() != 0 {
		t.Errorf("the swept fetch became resident (%d views)", s.Len())
	}
	again, err := acquire(s, 6)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Error("a post-sweep acquire was served the pre-sweep fetch")
	}
	if got := len(b.callLog()); got != 2 {
		t.Errorf("builder calls = %d, want 2 (the swept fetch and the refetch)", got)
	}
}

// TestBuilderErrorReachesEveryWaiter pins the failure path: the
// builder's typed error comes back unchanged to the call that built
// and to every acquirer waiting on its entries, and nothing stays
// resident — the next acquire builds afresh.
func TestBuilderErrorReachesEveryWaiter(t *testing.T) {
	sentinel := errors.New("shard unavailable")
	b := &scriptedBuilder{poolLen: 3, err: sentinel, entered: make(chan struct{}, 4), gate: make(chan struct{})}
	s := NewOver(b.build, testPool(3), 8)

	errs := make(chan error, 2)
	go func() {
		_, err := s.AcquireMulti([]dataset.UserID{1, 2})
		errs <- err
	}()
	<-b.entered
	go func() {
		_, err := s.AcquireMulti([]dataset.UserID{2})
		errs <- err
	}()
	for s.Stats().ViewHits == 0 {
		runtime.Gosched()
	}
	close(b.gate)
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, sentinel) {
			t.Errorf("acquirer %d: err = %v, want the builder's sentinel", i, err)
		}
	}
	if s.Len() != 0 {
		t.Errorf("failed builds left %d entries resident", s.Len())
	}

	b.mu.Lock()
	b.err, b.entered, b.gate = nil, nil, nil
	b.mu.Unlock()
	if _, err := s.AcquireMulti([]dataset.UserID{1, 2}); err != nil {
		t.Fatalf("acquire after the failure: %v", err)
	}
	if s.Len() != 2 {
		t.Errorf("recovered acquire left %d views resident, want 2", s.Len())
	}
}

// TestBuilderShortViewIsAnError pins the pool-coverage check: a view
// that does not cover the pool is refused, not served.
func TestBuilderShortViewIsAnError(t *testing.T) {
	b := &scriptedBuilder{poolLen: 2}
	s := NewOver(b.build, testPool(3), 8)
	if _, err := acquire(s, 1); err == nil {
		t.Error("a 2-score view over a 3-item pool was served")
	}
	if s.Len() != 0 {
		t.Errorf("refused view left %d entries resident", s.Len())
	}
}

// TestCapacityZeroSelectsDefault pins that every store retains: a
// capacity <= 0 is DefaultMaxUsers, so a repeated acquire is a hit, not
// another builder call.
func TestCapacityZeroSelectsDefault(t *testing.T) {
	b := &scriptedBuilder{poolLen: 3}
	s := NewOver(b.build, testPool(3), 0)
	if got := s.Capacity(); got != DefaultMaxUsers {
		t.Errorf("capacity = %d, want DefaultMaxUsers (%d)", got, DefaultMaxUsers)
	}
	for round := 0; round < 3; round++ {
		if _, err := s.AcquireMulti([]dataset.UserID{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Size != 3 || st.ViewHits != 6 || st.ViewBuilds != 3 || st.Evictions != 0 {
		t.Errorf("stats = %+v, want 3 builds, 6 hits, 3 resident", st)
	}
	if got := len(b.callLog()); got != 1 {
		t.Errorf("builder calls = %d, want 1", got)
	}
}

// TestInvalidateAllDropsMidBuildEntries pins the nil-view branch of the
// sweep white-box: an entry whose build has not settled is unlinked and
// counted like a settled one.
func TestInvalidateAllDropsMidBuildEntries(t *testing.T) {
	s := newLocal(&stubSource{}, testPool(4), 8)
	s.mu.Lock()
	s.entries[7] = &userEntry{} // registered, build not yet settled
	s.ring = append(s.ring, 7)
	s.mu.Unlock()
	if dropped := s.InvalidateAll(); dropped != 1 {
		t.Errorf("sweep dropped %d mid-build entries, want 1", dropped)
	}
	if s.Len() != 0 || len(s.ring) != 0 {
		t.Errorf("mid-build entry survived the sweep: %d resident, ring %v", s.Len(), s.ring)
	}
}

// TestAcquireMultiServesMemberEvictedMidCall pins that a call's views
// are its own: on a one-slot store the second member of a call evicts the
// first, and both views still come back, each equal to a fresh build.
func TestAcquireMultiServesMemberEvictedMidCall(t *testing.T) {
	s := newLocal(&stubSource{}, testPool(4), 1)
	views, err := s.AcquireMulti([]dataset.UserID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Evictions != 1 || st.Size != 1 {
		t.Fatalf("stats = %+v, want the first member evicted by the second", st)
	}
	fresh, err := s.build([]dataset.UserID{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range []dataset.UserID{1, 2} {
		if !reflect.DeepEqual(views[i], fresh[i]) {
			t.Errorf("user %d: view = %+v, want a fresh build's %+v", u, views[i], fresh[i])
		}
	}
}

// TestAcquireMultiConcurrentOverlappingGroups hammers overlapping
// groups from many goroutines (run with -race): with room for every
// user, each is built exactly once however the calls interleave, and
// no call deadlocks waiting on another's entries.
func TestAcquireMultiConcurrentOverlappingGroups(t *testing.T) {
	b := &scriptedBuilder{poolLen: 5}
	s := NewOver(b.build, testPool(5), 64)

	const users = 12
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				group := []dataset.UserID{
					dataset.UserID((w + r) % users),
					dataset.UserID((w + r + 1) % users),
					dataset.UserID((w + 2*r + 5) % users),
				}
				views, err := s.AcquireMulti(group)
				if err != nil {
					t.Error(err)
					return
				}
				for i, u := range group {
					if views[i].Scores[0] != float64(u) {
						t.Errorf("group %v slot %d holds user %v's view", group, i, views[i].Scores[0])
					}
				}
			}
		}(w)
	}
	wg.Wait()

	built := make(map[dataset.UserID]int)
	for _, call := range b.callLog() {
		for _, u := range call {
			built[u]++
		}
	}
	for u := dataset.UserID(0); u < users; u++ {
		if built[u] != 1 {
			t.Errorf("user %d built %d times, want exactly once", u, built[u])
		}
	}
}
