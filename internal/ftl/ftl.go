package ftl

import (
	"fmt"

	"conduit/internal/config"
	"conduit/internal/cow"
	"conduit/internal/lru"
	"conduit/internal/nand"
	"conduit/internal/sim"
)

// LPN is a logical page number.
type LPN int32

// FTL owns the logical address space of the drive.
type FTL struct {
	cfg *config.SSD
	geo nand.Geometry
	arr *nand.Array

	// Page-granular tables, chunked copy-on-write so deployment forks
	// share unwritten chunks with the frozen master (see package cow).
	l2p   cow.Table[int32] // LPN -> flat physical page index, -1 if unmapped
	p2l   cow.Table[LPN]   // physical page -> LPN, -1 if free/invalid
	valid cow.Table[bool]

	// Per-plane allocation state.
	freeBlocks  [][]int // free block flat-indices per plane
	activeBlock []int   // current write block per plane, -1 if none
	nextPage    []int   // next page offset within the active block
	validCount  []int   // valid pages per block

	cache *lru.Cache[LPN] // cached mapping table (DFTL demand caching)

	nextPlane int // round-robin cursor for unconstrained allocation

	gcRuns, migrations, mapMisses, mapHits int64
}

// New builds an FTL over arr.
func New(cfg *config.SSD, arr *nand.Array) *FTL {
	geo := arr.Geometry()
	planes := cfg.Channels * cfg.DiesPerChannel * cfg.PlanesPerDie
	f := &FTL{
		cfg:         cfg,
		geo:         geo,
		arr:         arr,
		l2p:         cow.New[int32](cfg.UsablePages(), -1),
		p2l:         cow.New[LPN](cfg.TotalPages(), -1),
		valid:       cow.New(cfg.TotalPages(), false),
		freeBlocks:  make([][]int, planes),
		activeBlock: make([]int, planes),
		nextPage:    make([]int, planes),
		validCount:  make([]int, geo.TotalBlocks()),
		cache:       lru.New[LPN](int(float64(cfg.UsablePages()) * cfg.MappingCacheRatio)),
	}
	for p := 0; p < planes; p++ {
		f.activeBlock[p] = -1
		f.freeBlocks[p] = make([]int, 0, cfg.BlocksPerPlane)
	}
	// Seed per-plane free lists with every block.
	for b := 0; b < geo.TotalBlocks(); b++ {
		addr := geo.BlockAddrOf(b)
		plane := geo.PlaneIndex(addr)
		f.freeBlocks[plane] = append(f.freeBlocks[plane], b)
	}
	return f
}

// Planes reports the number of allocation planes.
func (f *FTL) Planes() int { return len(f.freeBlocks) }

// Capacity reports the logical capacity in pages.
func (f *FTL) Capacity() int { return f.l2p.Len() }

// IsMapped reports whether lpn currently has a physical page.
func (f *FTL) IsMapped(lpn LPN) bool {
	return f.l2p.At(f.checkLPN(lpn)) != -1
}

func (f *FTL) checkLPN(lpn LPN) int {
	if lpn < 0 || int(lpn) >= f.l2p.Len() {
		panic(fmt.Sprintf("ftl: LPN %d out of range [0,%d)", lpn, f.l2p.Len()))
	}
	return int(lpn)
}

// Lookup translates lpn and reports the translation latency: a cached
// mapping entry costs TL2PLookupDRAM; a miss fetches the entry from flash
// (TL2PLookupFlash) and installs it in the cache (DFTL demand caching).
func (f *FTL) Lookup(lpn LPN) (nand.Addr, sim.Time, error) {
	i := f.checkLPN(lpn)
	if f.l2p.At(i) == -1 {
		return nand.Addr{}, 0, fmt.Errorf("ftl: LPN %d is unmapped", lpn)
	}
	var lat sim.Time
	if f.cache.Touch(lpn) {
		f.mapHits++
		lat = f.cfg.TL2PLookupDRAM
	} else {
		f.mapMisses++
		lat = f.cfg.TL2PLookupFlash
		f.cache.Insert(lpn)
	}
	return f.geo.AddrOf(int(f.l2p.At(i))), lat, nil
}

// PhysAddr translates lpn without modelling lookup latency (internal and
// test use).
func (f *FTL) PhysAddr(lpn LPN) (nand.Addr, bool) {
	i := f.checkLPN(lpn)
	if f.l2p.At(i) == -1 {
		return nand.Addr{}, false
	}
	return f.geo.AddrOf(int(f.l2p.At(i))), true
}

// Write stores data for lpn on flash: it allocates a page (running GC if
// needed), programs it, remaps the LPN and invalidates any previous copy.
// plane >= 0 pins the allocation to that plane; pass -1 for round-robin.
// It returns the program completion time.
func (f *FTL) Write(now sim.Time, lpn LPN, data []byte, plane int) (sim.Time, error) {
	f.checkLPN(lpn)
	addr, done, err := f.allocate(now, plane)
	if err != nil {
		return 0, err
	}
	done = f.arr.Program(now, done, addr, data)
	f.commitMapping(lpn, addr)
	return done, nil
}

// WriteRun stores a group of logical pages contiguously in one physical
// block of one plane — the placement constraint for Flash-Cosmos AND
// operands (§4.4). All pages are programmed sequentially; the returned time
// is the last program's completion.
func (f *FTL) WriteRun(now sim.Time, lpns []LPN, data [][]byte, plane int) (sim.Time, error) {
	if len(lpns) != len(data) {
		return 0, fmt.Errorf("ftl: WriteRun got %d LPNs but %d pages", len(lpns), len(data))
	}
	if len(lpns) > f.cfg.PagesPerBlock {
		return 0, fmt.Errorf("ftl: run of %d pages exceeds block size %d", len(lpns), f.cfg.PagesPerBlock)
	}
	if plane < 0 {
		plane = f.nextPlane
		f.nextPlane = (f.nextPlane + 1) % f.Planes()
	}
	// Ensure the active block has room for the whole run; otherwise turn
	// over to a fresh block so the run cannot straddle blocks.
	done := now
	if f.activeBlock[plane] == -1 || f.nextPage[plane]+len(lpns) > f.cfg.PagesPerBlock {
		var err error
		done, err = f.openBlock(now, plane)
		if err != nil {
			return 0, err
		}
	}
	for i, lpn := range lpns {
		f.checkLPN(lpn)
		addr, adone, err := f.allocate(now, plane)
		if err != nil {
			return 0, err
		}
		if adone > done {
			done = adone
		}
		done = f.arr.Program(now, done, addr, data[i])
		f.commitMapping(lpn, addr)
	}
	return done, nil
}

// WriteBuffered programs the current page-buffer contents of plane into a
// fresh page of that plane and maps it to lpn. This is the commit path for
// in-flash computation results (§4.4): no channel transfer happens, only
// the program itself.
func (f *FTL) WriteBuffered(now, ready sim.Time, lpn LPN, plane int) (sim.Time, error) {
	f.checkLPN(lpn)
	addr, adone, err := f.allocate(now, plane)
	if err != nil {
		return 0, err
	}
	done, err := f.arr.FlushBuffer(now, maxTime(ready, adone), addr)
	if err != nil {
		return 0, err
	}
	f.commitMapping(lpn, addr)
	return done, nil
}

// Read fetches lpn's flash copy, including L2P lookup latency.
func (f *FTL) Read(now, ready sim.Time, lpn LPN) ([]byte, sim.Time, error) {
	addr, lookupLat, err := f.Lookup(lpn)
	if err != nil {
		return nil, 0, err
	}
	data, done, err := f.arr.ReadChecked(now, maxTime(ready, now+lookupLat), addr)
	if err != nil {
		return nil, 0, fmt.Errorf("ftl: LPN %d: %w", lpn, err)
	}
	return data, done, nil
}

// Invalidate drops lpn's mapping (e.g. when the latest copy now lives in
// DRAM under the lazy-coherence protocol and the flash copy is stale).
func (f *FTL) Invalidate(lpn LPN) {
	i := f.checkLPN(lpn)
	if f.l2p.At(i) == -1 {
		return
	}
	f.invalidatePhys(int(f.l2p.At(i)))
	f.l2p.Set(i, -1)
}

func (f *FTL) invalidatePhys(phys int) {
	if f.valid.At(phys) {
		f.valid.Set(phys, false)
		f.p2l.Set(phys, -1)
		f.validCount[phys/f.cfg.PagesPerBlock]--
	}
}

func (f *FTL) commitMapping(lpn LPN, addr nand.Addr) {
	i := f.checkLPN(lpn)
	if f.l2p.At(i) != -1 {
		f.invalidatePhys(int(f.l2p.At(i)))
	}
	phys := f.geo.PageIndex(addr)
	f.l2p.Set(i, int32(phys))
	f.p2l.Set(phys, lpn)
	f.valid.Set(phys, true)
	f.validCount[f.geo.BlockIndex(addr)]++
	f.cache.Insert(lpn)
}

// allocate returns the next erased page to program in plane (or the
// round-robin plane for plane < 0), opening fresh blocks and running GC as
// needed. The returned time covers any GC work that had to complete first.
func (f *FTL) allocate(now sim.Time, plane int) (nand.Addr, sim.Time, error) {
	if plane < 0 {
		plane = f.nextPlane
		f.nextPlane = (f.nextPlane + 1) % f.Planes()
	}
	if plane >= f.Planes() {
		return nand.Addr{}, 0, fmt.Errorf("ftl: plane %d out of range", plane)
	}
	done := now
	if f.activeBlock[plane] == -1 || f.nextPage[plane] >= f.cfg.PagesPerBlock {
		var err error
		done, err = f.openBlock(now, plane)
		if err != nil {
			return nand.Addr{}, 0, err
		}
	}
	addr := f.geo.BlockAddrOf(f.activeBlock[plane])
	addr.Page = f.nextPage[plane]
	f.nextPage[plane]++
	return addr, done, nil
}

// reserveBlocks is the per-plane free-pool floor that triggers GC. At
// least one block stays free at all times so collection always has a
// migration target.
func (f *FTL) reserveBlocks() int {
	r := int(f.cfg.GCThreshold * float64(f.cfg.BlocksPerPlane))
	if r < 1 {
		r = 1
	}
	return r
}

// popFreeBlock removes and returns the least-erased free block of plane
// (wear-aware allocation).
func (f *FTL) popFreeBlock(plane int) int {
	best := 0
	for i, b := range f.freeBlocks[plane] {
		if f.arr.EraseCount(b) < f.arr.EraseCount(f.freeBlocks[plane][best]) {
			best = i
		}
	}
	blk := f.freeBlocks[plane][best]
	f.freeBlocks[plane] = append(f.freeBlocks[plane][:best], f.freeBlocks[plane][best+1:]...)
	return blk
}

// openBlock makes an active block with free pages available on plane.
// While the free pool is healthy it simply opens a fresh block; when the
// pool is at the reserve floor it garbage-collects instead, and the GC
// target block (partially filled with migrated pages) becomes the active
// block.
func (f *FTL) openBlock(now sim.Time, plane int) (sim.Time, error) {
	if len(f.freeBlocks[plane]) > f.reserveBlocks() {
		f.activeBlock[plane] = f.popFreeBlock(plane)
		f.nextPage[plane] = 0
		return now, nil
	}
	return f.collect(now, plane)
}

// collect runs greedy garbage collection on plane: it picks the block with
// the fewest valid pages (ties broken toward lower erase count for wear
// leveling), migrates its valid pages into a fresh target block, erases the
// victim, and installs the target as the plane's active block.
//
// collect never recurses into allocation: the migration target comes
// straight from the free pool, whose reserve floor guarantees one exists.
func (f *FTL) collect(now sim.Time, plane int) (sim.Time, error) {
	victim := -1
	for b := 0; b < f.cfg.BlocksPerPlane; b++ {
		blk := f.planeBlock(plane, b)
		if blk == f.activeBlock[plane] || f.isFree(plane, blk) {
			continue
		}
		if victim == -1 ||
			f.validCount[blk] < f.validCount[victim] ||
			(f.validCount[blk] == f.validCount[victim] &&
				f.arr.EraseCount(blk) < f.arr.EraseCount(victim)) {
			victim = blk
		}
	}
	if victim == -1 {
		return 0, fmt.Errorf("ftl: plane %d has no GC victim", plane)
	}
	if f.validCount[victim] >= f.cfg.PagesPerBlock {
		return 0, fmt.Errorf("ftl: plane %d full of live data (no reclaimable space)", plane)
	}
	if len(f.freeBlocks[plane]) == 0 {
		return 0, fmt.Errorf("ftl: plane %d has no free migration target", plane)
	}
	f.gcRuns++
	target := f.popFreeBlock(plane)
	f.activeBlock[plane] = target
	f.nextPage[plane] = 0

	done := now
	base := f.geo.BlockAddrOf(victim)
	targetBase := f.geo.BlockAddrOf(target)
	for p := 0; p < f.cfg.PagesPerBlock; p++ {
		src := base
		src.Page = p
		phys := f.geo.PageIndex(src)
		if !f.valid.At(phys) {
			continue
		}
		lpn := f.p2l.At(phys)
		data, rdone := f.arr.Read(now, done, src)
		dst := targetBase
		dst.Page = f.nextPage[plane]
		f.nextPage[plane]++
		done = f.arr.Program(now, rdone, dst, data)
		f.commitMapping(lpn, dst)
		f.migrations++
	}
	done = f.arr.Erase(done, base)
	f.freeBlocks[plane] = append(f.freeBlocks[plane], victim)
	return done, nil
}

func (f *FTL) planeBlock(plane, b int) int {
	return plane*f.cfg.BlocksPerPlane + b
}

func (f *FTL) isFree(plane, blk int) bool {
	for _, b := range f.freeBlocks[plane] {
		if b == blk {
			return true
		}
	}
	return false
}

// SameBlock reports whether all LPNs are mapped into one physical block
// (the IFP-AND placement precondition).
func (f *FTL) SameBlock(lpns []LPN) bool {
	addrs := make([]nand.Addr, 0, len(lpns))
	for _, lpn := range lpns {
		a, ok := f.PhysAddr(lpn)
		if !ok {
			return false
		}
		addrs = append(addrs, a)
	}
	return f.geo.SameBlock(addrs)
}

// SamePlane reports whether all LPNs are mapped into one plane
// (the IFP-OR / latch-arithmetic placement precondition).
func (f *FTL) SamePlane(lpns []LPN) bool {
	addrs := make([]nand.Addr, 0, len(lpns))
	for _, lpn := range lpns {
		a, ok := f.PhysAddr(lpn)
		if !ok {
			return false
		}
		addrs = append(addrs, a)
	}
	return f.geo.SamePlane(addrs)
}

// Migrate rewrites the given logical pages into a single block of one
// plane, reading each current copy and programming it into a fresh run.
// The runtime uses it when an offloading decision requires a placement the
// current layout violates; the cost function prices exactly this work.
func (f *FTL) Migrate(now sim.Time, lpns []LPN, plane int) (sim.Time, error) {
	data := make([][]byte, len(lpns))
	ready := now
	for i, lpn := range lpns {
		d, done, err := f.Read(now, now, lpn)
		if err != nil {
			return 0, err
		}
		data[i] = d
		if done > ready {
			ready = done
		}
	}
	done, err := f.WriteRun(ready, lpns, data, plane)
	if err != nil {
		return 0, err
	}
	f.migrations += int64(len(lpns))
	return done, nil
}

// Clone returns a deep copy of the FTL bound to arr (normally a Clone of
// the original's array): the L2P/P2L maps, per-plane allocation state, the
// mapping cache with its exact LRU order (cache order determines lookup
// latencies, so restoring it is required for run-for-run determinism), and
// the activity counters.
func (f *FTL) Clone(arr *nand.Array) *FTL {
	c := &FTL{
		cfg:         f.cfg,
		geo:         f.geo,
		arr:         arr,
		l2p:         f.l2p.Clone(),
		p2l:         f.p2l.Clone(),
		valid:       f.valid.Clone(),
		freeBlocks:  make([][]int, len(f.freeBlocks)),
		activeBlock: append([]int(nil), f.activeBlock...),
		nextPage:    append([]int(nil), f.nextPage...),
		validCount:  append([]int(nil), f.validCount...),
		cache:       f.cache.Clone(),
		nextPlane:   f.nextPlane,
		gcRuns:      f.gcRuns,
		migrations:  f.migrations,
		mapMisses:   f.mapMisses,
		mapHits:     f.mapHits,
	}
	for p, blocks := range f.freeBlocks {
		c.freeBlocks[p] = append([]int(nil), blocks...)
	}
	return c
}

// Freeze releases ownership of the page-granular tables so subsequent
// Clones alias their chunks copy-on-write instead of copying them. Call
// it on a pristine master that will be cloned many times; Clone itself
// never mutates the parent, so a frozen FTL may be cloned from multiple
// goroutines concurrently.
func (f *FTL) Freeze() {
	f.l2p.Freeze()
	f.p2l.Freeze()
	f.valid.Freeze()
}

// Stats reports FTL activity counters.
func (f *FTL) Stats() map[string]int64 {
	return map[string]int64{
		"gc_runs":    f.gcRuns,
		"migrations": f.migrations,
		"map_hits":   f.mapHits,
		"map_misses": f.mapMisses,
	}
}

func maxTime(a, b sim.Time) sim.Time {
	if a > b {
		return a
	}
	return b
}
