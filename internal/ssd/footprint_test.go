package ssd

import (
	"runtime"
	"testing"

	"conduit/internal/config"
	"conduit/internal/isa"
)

// TestNewAndForkAllocateForFootprint pins what a fresh device and a fork
// of a frozen master cost at default geometry (802,816 pages). A new
// device's page tables allocate nothing until written, and a fork
// aliases every chunk of the frozen master, including the ~25 chunks per
// table the master's 192 pages, spread over 64 planes, have written. So
// New plus a fork stay far below the 784 KiB of even the smallest
// page-granular table (one byte per page; the L2P alone would be 3 MiB).
// What remains is per-block state: erase counts, valid counts and free
// lists for 4,096 blocks.
func TestNewAndForkAllocateForFootprint(t *testing.T) {
	cfg := config.Default()
	ps := cfg.SSD.PageSize
	const pairs = 64
	inputs := map[isa.PageID][]byte{}
	var inputIDs []isa.PageID
	var insts []isa.Inst
	for i := 0; i < pairs; i++ {
		a, b := isa.PageID(2*i), isa.PageID(2*i+1)
		inputs[a], inputs[b] = randPage(uint64(a)+1, ps), randPage(uint64(b)+1, ps)
		inputIDs = append(inputIDs, a, b)
		insts = append(insts, isa.Inst{Op: isa.OpXor, Dst: isa.PageID(2*pairs + i), Srcs: []isa.PageID{a, b},
			Elem: 1, Lanes: ps, Meta: isa.Meta{Class: isa.OpXor.Class()}})
	}
	prog := buildProg(t, 3*pairs, inputIDs, insts)
	master := New(&cfg)
	if err := master.LoadProgram(prog, inputs); err != nil {
		t.Fatal(err)
	}
	master.Freeze()

	const bound = 320 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fresh := New(&cfg)
	fork := master.Clone()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(fresh)
	runtime.KeepAlive(fork)
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Fatalf("New plus a fork allocate %d KiB at default geometry, want under %d KiB", got>>10, bound>>10)
	}
}
