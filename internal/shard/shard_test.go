package shard

import (
	"sync"
	"testing"
)

func TestNewRejectsNonPositive(t *testing.T) {
	for _, n := range []int{0, -1, -100} {
		if m, err := New(n); err == nil {
			t.Errorf("New(%d) = %v, want error", n, m)
		}
	}
	m, err := New(1)
	if err != nil || m.N() != 1 {
		t.Fatalf("New(1) = %v, %v", m, err)
	}
}

func TestOneWayRoutesToShardZero(t *testing.T) {
	m, _ := New(1)
	for _, id := range []int64{0, 1, 71, 6039, -5, 1 << 40} {
		if s := m.Of(id); s != 0 {
			t.Errorf("Of(%d) = %d on a 1-way map, want 0", id, s)
		}
	}
}

func TestOfRangeAndDeterminism(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 16, 64} {
		m, err := New(n)
		if err != nil {
			t.Fatalf("New(%d): %v", n, err)
		}
		for id := int64(0); id < 10_000; id++ {
			s := m.Of(id)
			if s < 0 || s >= n {
				t.Fatalf("Of(%d) = %d outside [0,%d)", id, s, n)
			}
			if s2 := m.Of(id); s2 != s {
				t.Fatalf("Of(%d) unstable: %d then %d", id, s, s2)
			}
		}
	}
}

// TestOfSpreadsDenseIDs guards the point of the finalizer: dense
// sequential user IDs must not pile onto a few shards.
func TestOfSpreadsDenseIDs(t *testing.T) {
	const n, ids = 16, 16_000
	m, _ := New(n)
	counts := make([]int, n)
	for id := int64(0); id < ids; id++ {
		counts[m.Of(id)]++
	}
	want := ids / n
	for s, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("shard %d holds %d of %d IDs (expected near %d)", s, c, ids, want)
		}
	}
}

// TestOfConcurrent exercises Of under the race detector: the map is
// immutable, so concurrent routing must be safe by construction.
func TestOfConcurrent(t *testing.T) {
	m, _ := New(16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			for id := seed; id < seed+5_000; id++ {
				if s := m.Of(id); s < 0 || s >= 16 {
					panic("shard out of range")
				}
			}
		}(int64(g) * 1_000)
	}
	wg.Wait()
}
