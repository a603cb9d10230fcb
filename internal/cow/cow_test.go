package cow

import (
	"sync"
	"testing"

	"conduit/internal/sim"
)

// n leaves the final chunk shorter than the others.
const n = 3*chunk + 123

// TestTableMatchesFlatSlice runs seeded random mixes of Set, Freeze and
// Clone against flat reference slices and checks every element of every
// table at the end, so chunks no Set ever touched are read too. Both a
// non-zero and the zero fill are covered.
func TestTableMatchesFlatSlice(t *testing.T) {
	for _, fill := range []int32{-1, 0} {
		for seed := uint64(1); seed <= 8; seed++ {
			r := sim.NewRNG(seed)
			tables := []Table[int32]{New(n, fill)}
			ref := make([]int32, n)
			for i := range ref {
				ref[i] = fill
			}
			refs := [][]int32{ref}
			for step := 0; step < 3000; step++ {
				k := r.Intn(len(tables))
				switch op := r.Intn(20); {
				case op == 0:
					tables[k].Freeze()
				case op == 1 && len(tables) < 8:
					tables = append(tables, tables[k].Clone())
					refs = append(refs, append([]int32(nil), refs[k]...))
				default:
					// Writes cluster in the first and last chunks, with
					// a few anywhere, so some chunks stay untouched.
					i := r.Intn(200)
					switch r.Intn(3) {
					case 0:
						i = n - 1 - i
					case 1:
						i = r.Intn(n)
					}
					v := int32(r.Uint64())
					tables[k].Set(i, v)
					refs[k][i] = v
				}
				if i := r.Intn(n); tables[k].At(i) != refs[k][i] {
					t.Fatalf("fill %d seed %d step %d: table %d At(%d) = %d, want %d",
						fill, seed, step, k, i, tables[k].At(i), refs[k][i])
				}
			}
			for k := range tables {
				if tables[k].Len() != n {
					t.Fatalf("table %d Len = %d, want %d", k, tables[k].Len(), n)
				}
				for i, want := range refs[k] {
					if got := tables[k].At(i); got != want {
						t.Fatalf("fill %d seed %d: table %d At(%d) = %d, want %d", fill, seed, k, i, got, want)
					}
				}
			}
		}
	}
}

// TestConcurrentClonesOfFrozenParent clones one frozen parent from
// several goroutines at once and writes every clone; run under -race it
// shows Clone never writes the parent and aliased chunks are copied
// before a clone writes them.
func TestConcurrentClonesOfFrozenParent(t *testing.T) {
	parent := New[int32](n, -1)
	for i := 0; i < n; i += 7 {
		parent.Set(i, int32(i))
	}
	parent.Freeze()
	want := func(i int) int32 {
		if i%7 == 0 {
			return int32(i)
		}
		return -1
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				c := parent.Clone()
				for i := g; i < n; i += 97 {
					c.Set(i, int32(-g-2))
				}
				for i := 0; i < n; i++ {
					w := want(i)
					if (i-g)%97 == 0 && i >= g {
						w = int32(-g - 2)
					}
					if got := c.At(i); got != w {
						t.Errorf("goroutine %d: clone At(%d) = %d, want %d", g, i, got, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if got := parent.At(i); got != want(i) {
			t.Fatalf("parent At(%d) = %d after concurrent clones, want %d", i, got, want(i))
		}
	}
}
