package cf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dataset"
)

// repairStream draws the ratings the repair differential applies, one
// at a time against the live state: repeated (user, item) pairs, the
// heaviest user and the most-rated item, first overlaps between users
// who shared nothing, pushes of a cached neighborhood's last entry
// behind its list, and plain random ratings, in turn.
type repairStream struct {
	rng   *rand.Rand
	p     *Predictor
	users []dataset.UserID
	items []dataset.ItemID
	n     int
}

func (g *repairStream) next() dataset.Rating {
	g.n++
	s := g.p.store
	u := g.users[g.rng.Intn(len(g.users))]
	it := g.items[g.rng.Intn(len(g.items))]
	v := float64(1 + g.rng.Intn(5))
	switch g.n % 6 {
	case 0: // a repeated pair
		if row := s.ByUser(u); len(row) > 0 {
			it = row[g.rng.Intn(len(row))].Item
		}
	case 1: // the heaviest user
		u = slices.MaxFunc(g.users, func(a, b dataset.UserID) int { return s.Row(a).Len() - s.Row(b).Len() })
	case 2: // the most-rated item
		it = slices.MaxFunc(g.items, func(a, b dataset.ItemID) int { return s.Raters(a).Len() - s.Raters(b).Len() })
	case 3: // a first overlap: u rates an item of a user it shares nothing with
		for _, w := range g.users {
			if w != u && s.Row(w).Len() > 0 && !corated(s, u, w) {
				it = s.ByUser(w)[0].Item
				break
			}
		}
	case 4: // push a last entry behind its list
		if r, ok := g.push(); ok {
			return r
		}
	}
	return dataset.Rating{User: u, Item: it, Value: v, Time: int64(g.n)}
}

// push picks the cached incomplete neighborhood with the fewest entries
// and has its last entry w rate, with a 5, an item the owner did not
// rate: w's norm grows while the dot product with the owner stays, so
// under cosine w falls behind the list and the list shrinks by one —
// until it holds fewer than k and drops.
func (g *repairStream) push() (dataset.Rating, bool) {
	s := g.p.store
	var owner dataset.UserID
	best := math.MaxInt
	for _, v := range g.users {
		if nb, ok := residentEntry(g.p, v); ok && !nb.complete && len(nb.ns) > 0 && len(nb.ns) < best {
			owner, best = v, len(nb.ns)
		}
	}
	if best == math.MaxInt {
		return dataset.Rating{}, false
	}
	nb, _ := residentEntry(g.p, owner)
	w := nb.ns[len(nb.ns)-1].User
	for _, it := range g.items {
		if _, rated := s.Value(owner, it); !rated {
			return dataset.Rating{User: w, Item: it, Value: 5, Time: int64(g.n)}, true
		}
	}
	return dataset.Rating{}, false
}

// corated reports whether u and w share an item.
func corated(s *dataset.Store, u, w dataset.UserID) bool {
	for _, r := range s.ByUser(u) {
		if _, ok := s.Value(w, r.Item); ok {
			return true
		}
	}
	return false
}

// applyAndRepair folds r into the store, lets p repair what it reaches,
// holds every cached neighborhood to a cold fill, and refills what the
// rating dropped so the next rating finds every user cached.
func applyAndRepair(p *Predictor, r dataset.Rating) error {
	if err := p.store.Apply(r); err != nil {
		return fmt.Errorf("Apply(%+v): %w", r, err)
	}
	p.NoteIngestScoped(r.User, r.Item)
	if err := diffResident(p); err != nil {
		return fmt.Errorf("after %+v: %w", r, err)
	}
	for _, u := range p.store.Users() {
		p.Neighbors(u)
	}
	return nil
}

// TestRepairedNeighborhoodsMatchColdFill holds the in-place repair to a
// cold fill after every rating: over the scan test's worlds and k from
// one neighbor to above the user count, each world's own
// deltas and then 300 drawn ratings (repeated pairs, the heaviest user
// and item, first overlaps, margin pushes) are applied one at a time,
// and every cached neighborhood must serve the cold top-k bit for bit
// and store an exact prefix of the cold ranking. The margin pushes must
// drive at least one list below k, so the drop path is taken too.
func TestRepairedNeighborhoodsMatchColdFill(t *testing.T) {
	var drops, repairs int64
	for wi, w := range scanWorlds() {
		for _, k := range neighborhoodSizes(w.users()) {
			t.Run(fmt.Sprintf("%s/k=%d", w.name, k), func(t *testing.T) {
				s, deltas := buildScanWorld(t, w)
				p := newTestPredictor(t, s, k)
				for _, u := range s.Users() {
					p.Neighbors(u)
				}
				for _, r := range deltas {
					if err := applyAndRepair(p, r); err != nil {
						t.Fatal(err)
					}
				}
				g := &repairStream{rng: rand.New(rand.NewSource(int64(wi*100 + k))), p: p, users: s.Users(), items: s.Items()}
				for i := 0; i < 300; i++ {
					if err := applyAndRepair(p, g.next()); err != nil {
						t.Fatalf("drawn rating %d: %v", i, err)
					}
				}
				t.Logf("%d repairs, %d drops", p.work.repaired.Load(), p.work.repairDrops.Load())
				drops += p.work.repairDrops.Load()
				repairs += p.work.repaired.Load()
			})
		}
	}
	if repairs == 0 || drops == 0 {
		t.Fatalf("%d repairs and %d drops over every world: both paths must be taken", repairs, drops)
	}
}

// FuzzRepairMatchesColdFill feeds the repair differential arbitrary
// small worlds: the second to fourth bytes pick the user-ID layout, how
// much of the log is frozen and k (the first picked among similarity
// measures the package no longer has and is ignored, so the seeds keep
// their meaning); every following triple is one rating. Every user's neighborhood is cached before each live rating,
// and after it every cached one must match a cold fill.
func FuzzRepairMatchesColdFill(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 4, 0, 1, 3, 1, 1, 2, 0, 1, 4, 1, 1, 0})
	f.Add([]byte{1, 1, 1, 2, 2, 0, 0, 0, 1, 0, 4, 0, 0, 2, 1, 0, 1, 2, 0, 3})
	f.Add([]byte{0, 1, 2, 1, 9, 3, 2, 1, 4, 2, 2, 3, 2, 0, 4, 2, 4, 5, 1, 1, 3, 1, 2, 5, 1, 0})
	f.Add([]byte{0, 2, 5, 3, 0, 0, 4, 1, 0, 4, 2, 0, 4, 3, 1, 5, 0, 1, 5, 1, 1, 5, 2, 2, 3, 3, 2, 1, 2, 0, 4})
	// k=1 over ratings that all tie on item 0.
	f.Add([]byte{0, 0, 2, 0, 0, 0, 4, 1, 0, 4, 2, 0, 4, 3, 0, 4, 4, 0, 4})
	// k=4 over disjoint items, overlaps only in the live ratings.
	f.Add([]byte{0, 0, 2, 3, 0, 0, 1, 1, 1, 2, 2, 2, 3, 0, 1, 4, 1, 2, 0})
	// The extreme IDs of the map layout, MaxInt64 among them, at k=2.
	f.Add([]byte{0, 2, 1, 1, 0, 0, 4, 7, 0, 0, 0, 1, 1, 7, 1, 3})
	// One frozen rating, everything else live, k=1.
	f.Add([]byte{0, 1, 0, 0, 0, 3, 0, 1, 3, 0, 2, 3, 0, 1, 4, 1, 2, 4, 2})
	// One (user, item) pair repeated across the freeze.
	f.Add([]byte{0, 0, 1, 2, 2, 2, 0, 2, 2, 4, 2, 2, 1, 3, 2, 2})
	// A live rating turns a tie for user 0's top-1 into a clear lead.
	f.Add([]byte{0, 0, 3, 0, 0, 0, 5, 1, 0, 5, 2, 0, 4, 0, 1, 1, 1, 1, 1, 1, 0, 0})
	layouts := [][]dataset.UserID{
		{0, 1, 2, 3, 4, 5, 6, 7},
		{-70, -69, -3, 0, 5, 64, 65, 300},
		{math.MinInt64, -1 << 40, -9, 0, 7, 1 << 20, 1 << 41, math.MaxInt64},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 4 {
			return
		}
		ids := layouts[int(data[1])%len(layouts)]
		k := 1 + int(data[3])%4
		var log []dataset.Rating
		for body := data[4:]; len(body) >= 3 && len(log) < 96; body = body[3:] {
			log = append(log, dataset.Rating{
				User:  ids[int(body[0])%len(ids)],
				Item:  dataset.ItemID(body[1] % 6),
				Value: float64(1 + body[2]%5),
				Time:  int64(len(log)),
			})
		}
		if len(log) == 0 {
			return
		}
		nBase := 1 + int(data[2])%len(log)
		s, deltas := buildScanWorld(t, scanWorld{base: log[:nBase], deltas: log[nBase:]})
		p := newTestPredictor(t, s, k)
		for _, u := range s.Users() {
			p.Neighbors(u)
		}
		for _, r := range deltas {
			if err := applyAndRepair(p, r); err != nil {
				t.Fatal(err)
			}
		}
	})
}
