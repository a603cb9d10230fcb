// Package cow provides the chunked copy-on-write table that holds a
// device's page-granular state: the FTL's L2P, P2L and validity tables
// and the NAND array's page states.
//
// Each table has one entry per page of the drive, hundreds of thousands
// at default geometry, while a program touches a few thousand pages. A
// table therefore stores fixed-size chunks that are materialized lazily:
// a nil chunk reads as the table's fill value and is allocated on its
// first Set, so a new table costs O(chunks), not O(entries). Chunks also
// carry per-chunk ownership so a clone can alias chunks instead of
// copying them. A chunk is written in place only while owned; the first
// write to an unowned chunk copies it first, so aliased chunks are
// immutable and clones may run concurrently.
//
// Freeze releases ownership of every chunk. Freezing the pristine
// post-deploy master makes each subsequent fork O(chunks) pointer
// copies; forks then pay only for the chunks they actually write, which
// is proportional to the program footprint rather than the drive
// capacity.
package cow

const (
	shift = 14 // 16K entries per chunk
	chunk = 1 << shift
	mask  = chunk - 1
)

// Table is a chunked copy-on-write array of n elements.
type Table[T any] struct {
	n      int
	fill   T
	chunks [][]T  // nil: never written, every element reads as fill
	owned  []bool // owned[c]: chunks[c] is exclusively ours, writable in place
}

// New returns a table of n elements that all read as fill. It allocates
// no chunk.
func New[T any](n int, fill T) Table[T] {
	nc := (n + chunk - 1) / chunk
	return Table[T]{n: n, fill: fill, chunks: make([][]T, nc), owned: make([]bool, nc)}
}

// Len reports the element count.
func (t *Table[T]) Len() int { return t.n }

// At reads element i.
func (t *Table[T]) At(i int) T {
	if ch := t.chunks[i>>shift]; ch != nil {
		return ch[i&mask]
	}
	return t.fill
}

// Set writes element i. A chunk never written before is allocated and
// filled first; a chunk shared with another table is copied first.
func (t *Table[T]) Set(i int, v T) {
	c := i >> shift
	if !t.owned[c] {
		if t.chunks[c] == nil {
			t.chunks[c] = t.filled(c)
		} else {
			t.chunks[c] = append([]T(nil), t.chunks[c]...)
		}
		t.owned[c] = true
	}
	t.chunks[c][i&mask] = v
}

// filled returns a new chunk c with every element set to fill. The last
// chunk holds only the remainder of n.
func (t *Table[T]) filled(c int) []T {
	size := chunk
	if c == len(t.chunks)-1 {
		size = t.n - c*chunk
	}
	ch := make([]T, size)
	for i := range ch {
		ch[i] = t.fill
	}
	return ch
}

// Freeze releases ownership of every chunk: the table keeps its
// contents but the next write to any chunk copies it first. A frozen
// table clones in O(chunks) and is safe to clone from multiple
// goroutines concurrently, since Clone never mutates the parent.
func (t *Table[T]) Freeze() {
	for c := range t.owned {
		t.owned[c] = false
	}
}

// Clone returns an independent table: chunks the parent owns are deep
// copied (the parent may still write them in place); unowned and
// unwritten chunks are aliased, protected by copy-on-write on both sides.
func (t *Table[T]) Clone() Table[T] {
	nt := Table[T]{
		n:      t.n,
		fill:   t.fill,
		chunks: append([][]T(nil), t.chunks...),
		owned:  make([]bool, len(t.owned)),
	}
	for c, own := range t.owned {
		if own {
			nt.chunks[c] = append([]T(nil), t.chunks[c]...)
			nt.owned[c] = true
		}
	}
	return nt
}
