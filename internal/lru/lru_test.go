package lru

import (
	"testing"

	"conduit/internal/sim"
)

// scanLRU is the host page cache Cache replaced, kept as the reference: a
// map from page to the tick of its last touch, evicting the page with
// the oldest tick by scanning every entry on each miss.
type scanLRU struct {
	capacity int
	cached   map[int32]int64
	tick     int64
}

func (c *scanLRU) touch(p int32) (hit bool, victim int32, evicted bool) {
	c.tick++
	if _, ok := c.cached[p]; ok {
		c.cached[p] = c.tick
		return true, 0, false
	}
	if len(c.cached) >= c.capacity {
		oldest := int64(1<<62 - 1)
		for q, at := range c.cached {
			if at < oldest {
				victim, oldest = q, at
			}
		}
		delete(c.cached, victim)
		evicted = true
	}
	c.cached[p] = c.tick
	return false, victim, evicted
}

// TestCacheMatchesHostScan drives Cache the way the host page cache does
// (Touch, then Insert on a miss) beside the scanning reference over
// seeded touch sequences, and requires the same hit/miss answer and the
// same victim at every step. The sequences mix a hot set, which produces
// hits and recency refreshes, with uniform touches over the whole
// program, which force evictions; capacities run from the host's
// minimum of 4 to more than the program holds.
func TestCacheMatchesHostScan(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		r := sim.NewRNG(seed)
		pages := 4 + r.Intn(200)
		capacity := 4 + r.Intn(pages)
		c := New[int32](capacity)
		ref := &scanLRU{capacity: capacity, cached: map[int32]int64{}}
		hot := 1 + r.Intn(2*capacity)
		for step := 0; step < 5000; step++ {
			p := int32(r.Intn(pages))
			if r.Intn(4) != 0 {
				p = int32(r.Intn(hot) % pages)
			}
			var victim int32
			var evicted bool
			hit := c.Touch(p)
			if !hit {
				victim, evicted = c.Insert(p)
			}
			wantHit, wantVictim, wantEvicted := ref.touch(p)
			if hit != wantHit || evicted != wantEvicted || victim != wantVictim {
				t.Fatalf("seed %d (pages %d, capacity %d) step %d touch %d: got (hit %v, evicted %v, victim %d), want (hit %v, evicted %v, victim %d)",
					seed, pages, capacity, step, p, hit, evicted, victim, wantHit, wantEvicted, wantVictim)
			}
		}
	}
}

// TestCloneKeepsRecencyOrder: a clone evicts in the same order as its
// original, and the two evolve independently afterwards.
func TestCloneKeepsRecencyOrder(t *testing.T) {
	c := New[int32](3)
	for _, k := range []int32{1, 2, 3} {
		c.Insert(k)
	}
	c.Touch(1) // order, least recent first: 2, 3, 1
	d := c.Clone()
	for _, want := range []int32{2, 3, 1} {
		if v, ok := d.Insert(100 + want); !ok || v != want {
			t.Fatalf("clone evicted %d (%v), want %d", v, ok, want)
		}
	}
	if !c.Touch(2) || !c.Touch(3) || !c.Touch(1) {
		t.Fatal("inserts into the clone evicted keys from the original")
	}
}
