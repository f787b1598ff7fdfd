package cache

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"
)

func TestColdMissThenHit(t *testing.T) {
	h := NewDefault()
	r := h.Access(0x1000)
	if !r.MissL1 || !r.MissL2 || !r.MissLLC {
		t.Errorf("cold access should miss everywhere: %+v", r)
	}
	if r.Cycles != uint64(DefaultConfig().MemoryCycles) {
		t.Errorf("cold access cost %d, want memory latency %d", r.Cycles, DefaultConfig().MemoryCycles)
	}
	r = h.Access(0x1000)
	if r.MissL1 {
		t.Errorf("second access should hit L1: %+v", r)
	}
	if r.Cycles != uint64(DefaultConfig().L1.HitCycles) {
		t.Errorf("L1 hit cost %d, want %d", r.Cycles, DefaultConfig().L1.HitCycles)
	}
}

func TestSameLineSharesEntry(t *testing.T) {
	h := NewDefault()
	h.Access(0x2000)
	if r := h.Access(0x2000 + 56); r.MissL1 {
		t.Error("access within the same 64B line should hit")
	}
	if r := h.Access(0x2000 + 64); !r.MissL1 {
		t.Error("access to the next line should miss")
	}
}

func TestLRUEvictionWithinSet(t *testing.T) {
	// Small direct-mapped-ish cache: 2 ways, 2 sets, 64B lines.
	cfg := Config{SizeBytes: 256, LineBytes: 64, Ways: 2, HitCycles: 1}
	c := newLevel(cfg)
	// Three lines mapping to set 0 (stride = nsets*64 = 128).
	a, b, d := uint64(0), uint64(256), uint64(512)
	c.access(a)
	c.access(b)
	if !c.access(a) {
		t.Fatal("a should still be resident")
	}
	c.access(d) // evicts LRU = b
	if !c.access(a) {
		t.Error("a (MRU before d) should survive")
	}
	if c.access(b) {
		t.Error("b should have been evicted (LRU)")
	}
}

func TestL2CatchesL1Evictions(t *testing.T) {
	h := NewDefault()
	// Walk far beyond L1 capacity (32 KiB) but within L2 (256 KiB).
	for addr := uint64(0); addr < 128<<10; addr += 64 {
		h.Access(addr)
	}
	// Re-walk the start: L1 evicted it, L2 should hold it.
	r := h.Access(0)
	if !r.MissL1 {
		t.Error("expected L1 miss after capacity walk")
	}
	if r.MissL2 {
		t.Error("expected L2 hit after 128KiB walk")
	}
}

func TestFlushAll(t *testing.T) {
	h := NewDefault()
	for addr := uint64(0); addr < 4096; addr += 64 {
		h.Access(addr)
	}
	h.FlushAll()
	if r := h.Access(0); !r.MissLLC {
		t.Error("FlushAll should empty every level")
	}
}

func TestMissLatencyOrdering(t *testing.T) {
	cfg := DefaultConfig()
	if !(cfg.L1.HitCycles < cfg.L2.HitCycles &&
		cfg.L2.HitCycles < cfg.LLC.HitCycles &&
		cfg.LLC.HitCycles < cfg.MemoryCycles) {
		t.Error("latencies must increase down the hierarchy")
	}
}

func TestLevelString(t *testing.T) {
	for lv, want := range map[Level]string{L1: "L1", L2: "L2", LLC: "LLC", Memory: "Memory"} {
		if lv.String() != want {
			t.Errorf("%d renders as %q, want %q", lv, lv.String(), want)
		}
	}
}

func TestNonPowerOfTwoSetsRoundsDown(t *testing.T) {
	// 3 ways * 64B with 384B capacity => 2 sets requested; construction
	// must not panic and must behave as a cache.
	c := newLevel(Config{SizeBytes: 384, LineBytes: 64, Ways: 3, HitCycles: 1})
	if c.access(0) {
		t.Error("first access cannot hit")
	}
	if !c.access(0) {
		t.Error("second access must hit")
	}
}

// refLevel models one cache level with storage that is never recycled:
// each set is its own slice, allocated on first touch. Ways hold line+1
// (zero = invalid) in LRU order.
type refLevel struct {
	lineBytes, nsets uint64
	ways             int
	hitLat           uint64
	sets             map[uint64][]uint64
}

func newRefLevel(cfg Config) *refLevel {
	return &refLevel{
		lineBytes: uint64(cfg.LineBytes),
		nsets:     uint64(cfg.SizeBytes / cfg.LineBytes / cfg.Ways),
		ways:      cfg.Ways,
		hitLat:    uint64(cfg.HitCycles),
		sets:      make(map[uint64][]uint64),
	}
}

func (r *refLevel) set(addr uint64) ([]uint64, uint64) {
	line := addr / r.lineBytes
	ws := r.sets[line%r.nsets]
	if ws == nil {
		ws = make([]uint64, r.ways)
		r.sets[line%r.nsets] = ws
	}
	return ws, line + 1
}

func (r *refLevel) access(addr uint64) bool {
	ws, key := r.set(addr)
	for i, k := range ws {
		if k == key {
			copy(ws[1:i+1], ws[:i])
			ws[0] = key
			return true
		}
	}
	copy(ws[1:], ws[:len(ws)-1])
	ws[0] = key
	return false
}

// refHierarchy is the fresh-memory oracle for Hierarchy. A second real
// Hierarchy cannot play that part: its own FlushAll recycles chunks.
type refHierarchy struct {
	levels [3]*refLevel
	mem    uint64
}

func newRefHierarchy(cfg HierarchyConfig) *refHierarchy {
	return &refHierarchy{
		levels: [3]*refLevel{newRefLevel(cfg.L1), newRefLevel(cfg.L2), newRefLevel(cfg.LLC)},
		mem:    uint64(cfg.MemoryCycles),
	}
}

func (r *refHierarchy) Access(addr uint64) Result {
	var res Result
	miss := [3]*bool{&res.MissL1, &res.MissL2, &res.MissLLC}
	for i, lv := range r.levels {
		if lv.access(addr) {
			res.Cycles = lv.hitLat
			return res
		}
		*miss[i] = true
	}
	res.Cycles = r.mem
	return res
}

func (r *refHierarchy) FlushAll() {
	for _, lv := range r.levels {
		clear(lv.sets)
	}
}

// smallConfig has few enough sets that random traffic evicts, hits at
// every level and spans several LLC chunks.
func smallConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:           Config{SizeBytes: 1 << 10, LineBytes: 64, Ways: 2, HitCycles: 4},
		L2:           Config{SizeBytes: 4 << 10, LineBytes: 64, Ways: 4, HitCycles: 12},
		LLC:          Config{SizeBytes: 64 << 10, LineBytes: 64, Ways: 8, HitCycles: 40},
		MemoryCycles: 200,
	}
}

// replay drives h and ref with the same seeded Access/FlushAll sequence
// and returns the first Result they disagree on as an error.
func replay(h *Hierarchy, ref *refHierarchy, seed uint64, ops int, span uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	var hot [32]uint64
	for i := range hot {
		hot[i] = rng.Uint64N(span)
	}
	for i := 0; i < ops; i++ {
		addr := rng.Uint64N(span)
		if rng.IntN(2) == 0 {
			addr = hot[rng.IntN(len(hot))] + rng.Uint64N(4)*64
		}
		if rng.IntN(1000) < 2 {
			h.FlushAll()
			ref.FlushAll()
		} else if got, want := h.Access(addr), ref.Access(addr); got != want {
			return fmt.Errorf("seed %d op %d: Access(%#x) = %+v, fresh model says %+v", seed, i, addr, got, want)
		}
	}
	return nil
}

// dirty touches every set of every level with nonzero tags.
func dirty(h *Hierarchy, span uint64) {
	for addr := uint64(0); addr < span; addr += 64 {
		h.Access(addr)
	}
}

func chunkAddrs(h *Hierarchy) map[*uint64]bool {
	out := make(map[*uint64]bool)
	for _, lv := range []*cacheLevel{h.l1, h.l2, h.llc} {
		for _, ch := range lv.chunks {
			if ch != nil {
				out[&ch[0]] = true
			}
		}
	}
	return out
}

// TestChunkRecyclingDifferential builds a hierarchy from chunks another
// hierarchy dirtied and released, and requires every Result of a random
// Access/FlushAll sequence to match a model whose storage is always
// fresh.
func TestChunkRecyclingDifferential(t *testing.T) {
	for name, cfg := range map[string]HierarchyConfig{"default": DefaultConfig(), "small": smallConfig()} {
		t.Run(name, func(t *testing.T) {
			span := uint64(cfg.LLC.SizeBytes) * 2
			d := NewHierarchy(cfg)
			dirty(d, span)
			released := chunkAddrs(d)
			d.Release()

			h := NewHierarchy(cfg)
			if err := replay(h, newRefHierarchy(cfg), 1, 200_000, span); err != nil {
				t.Fatal(err)
			}
			reused := 0
			for p := range chunkAddrs(h) {
				if released[p] {
					reused++
				}
			}
			if reused == 0 {
				t.Fatal("no released chunk was reused")
			}
			h.Release()
		})
	}
}

// TestReleasedHierarchyPanics pins the Release contract: every later
// use fails loudly, including a repeat of the last accessed line.
func TestReleasedHierarchyPanics(t *testing.T) {
	for name, use := range map[string]func(h *Hierarchy){
		"Access same line": func(h *Hierarchy) { h.Access(0x40) },
		"Access":           func(h *Hierarchy) { h.Access(0x1_0000) },
		"AccessRange":      func(h *Hierarchy) { h.AccessRange(0x40, 4) },
		"FlushAll":         func(h *Hierarchy) { h.FlushAll() },
	} {
		h := NewDefault()
		h.Access(0x40)
		h.Release()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s after Release did not panic", name)
				}
			}()
			use(h)
		}()
	}
}

// TestChunkRecyclingConcurrent has hierarchies on several goroutines
// take, flush and release chunks through the shared free lists at once;
// run it under -race. Each round must match the fresh model.
func TestChunkRecyclingConcurrent(t *testing.T) {
	cfg := smallConfig()
	span := uint64(cfg.LLC.SizeBytes) * 2
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				h := NewHierarchy(cfg)
				err := replay(h, newRefHierarchy(cfg), uint64(g*10+round), 20_000, span)
				h.Release()
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// rangeTwins returns two hierarchies brought to the same random
// pre-state by a seeded Access/FlushAll sequence over span bytes, so
// one can run AccessRange and the other the per-line loop.
func rangeTwins(cfg HierarchyConfig, seed uint64, ops int, span uint64) (*Hierarchy, *Hierarchy) {
	a, b := NewHierarchy(cfg), NewHierarchy(cfg)
	rng := rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))
	for i := 0; i < ops; i++ {
		addr := rng.Uint64N(span)
		if rng.IntN(1000) < 2 {
			a.FlushAll()
			b.FlushAll()
		} else {
			a.Access(addr)
			b.Access(addr)
		}
	}
	return a, b
}

// checkAccessRange runs AccessRange(base, n) on h and the loop it
// replaces on twin, then requires equal sums, equal tag chunks (nil or
// not, and every way) at every level, and equal lastLine.
func checkAccessRange(h, twin *Hierarchy, base uint64, n int) error {
	var want [4]uint64
	for i := 0; i < n; i++ {
		r := twin.Access(base + uint64(i)*64)
		want[0] += r.Cycles
		for j, m := range []bool{r.MissL1, r.MissL2, r.MissLLC} {
			if m {
				want[j+1]++
			}
		}
	}
	var got [4]uint64
	got[0], got[1], got[2], got[3] = h.AccessRange(base, n)
	if got != want {
		return fmt.Errorf("AccessRange(%#x, %d) = cycles/L1/L2/LLC %v, per-line loop %v", base, n, got, want)
	}
	if h.lastLine != twin.lastLine {
		return fmt.Errorf("AccessRange(%#x, %d): lastLine %#x, per-line loop %#x", base, n, h.lastLine, twin.lastLine)
	}
	for li, lv := range []*cacheLevel{h.l1, h.l2, h.llc} {
		tw := []*cacheLevel{twin.l1, twin.l2, twin.llc}[li]
		for ci, ch := range lv.chunks {
			tch := tw.chunks[ci]
			if (ch == nil) != (tch == nil) {
				return fmt.Errorf("AccessRange(%#x, %d): level %v chunk %d materialized %v, per-line loop %v", base, n, Level(li), ci, ch != nil, tch != nil)
			}
			for w := range ch {
				if ch[w] != tch[w] {
					return fmt.Errorf("AccessRange(%#x, %d): level %v chunk %d way %d tag %#x, per-line loop %#x", base, n, Level(li), ci, w, ch[w], tch[w])
				}
			}
		}
	}
	return nil
}

// kernelWindows drives h and twin through a sequence of overlapping
// walks, as the kernel's sliding pollution window does: each walk
// starts 1–8 lines past the previous one and is at most or above L1's
// set count. Between walks come user accesses (anywhere, in the current
// window, or just ahead of it), FlushAll, walks reaching back more than
// the set count before the window, and walks wrapping past 2^64. It
// returns the first walk on which AccessRange and the per-line loop
// disagree.
func kernelWindows(h, twin *Hierarchy, cfg HierarchyConfig, rng *rand.Rand, span uint64) error {
	l1Sets := cfg.L1.SizeBytes / cfg.L1.LineBytes / cfg.L1.Ways
	base := 0xffff_8000_0000_0000 + rng.Uint64N(1<<20)*64
	n := 32
	both := func(addr uint64) {
		h.Access(addr)
		twin.Access(addr)
	}
	for step := 0; step < 60; step++ {
		switch p := rng.IntN(100); {
		case p < 30:
			for k := rng.IntN(4); k >= 0; k-- {
				both(rng.Uint64N(span))
			}
		case p < 45:
			both(base + rng.Uint64N(uint64(n)+8)*64)
		case p < 55:
			both(base + uint64(n+rng.IntN(16))*64) // above every line walked so far
		case p < 58:
			h.FlushAll()
			twin.FlushAll()
		}
		wbase, wn := base, n
		switch p := rng.IntN(100); {
		case p < 5:
			wbase, wn = ^uint64(0)-uint64(rng.IntN(40))*64, 1+rng.IntN(l1Sets) // wraps
		case p < 12:
			wbase, wn = base-uint64(l1Sets/2+1+rng.IntN(l1Sets))*64, 2*l1Sets+rng.IntN(l1Sets) // reaches back
		default:
			base += uint64(1+rng.IntN(8)) * 64
			wbase = base
			switch rng.IntN(4) {
			case 0:
				n = 1 + rng.IntN(l1Sets) // at most the set count
			case 1:
				n = l1Sets + 1 + rng.IntN(l1Sets) // above it
			}
			wn = n
		}
		if err := checkAccessRange(h, twin, wbase, wn); err != nil {
			return fmt.Errorf("window step %d: %v", step, err)
		}
	}
	return nil
}

// fillStates checks ranges that lie above every line accessed so far,
// so they take the install path, into sets in two pre-states: empty
// (a fresh pair) and partly filled. A partly filled set holds 1 to
// maxWays-1 earlier lines that alias it at every level, so it is part
// full at some level and full at the smaller ones; about half the
// lines of the range get such a set, the rest stay empty.
func fillStates(cfg HierarchyConfig, rng *rand.Rand) error {
	h, twin := rangeTwins(cfg, 0, 0, 0)
	defer h.Release()
	defer twin.Release()
	base := 0xffff_8000_0000_0000 + rng.Uint64N(1<<20)*64
	if err := checkAccessRange(h, twin, base, 1+rng.IntN(300)); err != nil {
		return fmt.Errorf("empty sets: %v", err)
	}

	p, ptwin := rangeTwins(cfg, 0, 0, 0)
	defer p.Release()
	defer ptwin.Release()
	// Lines one LLC set span apart share a set at every level: each
	// level's set span divides the LLC's.
	var alias uint64
	maxWays := 0
	for _, lv := range []Config{cfg.L1, cfg.L2, cfg.LLC} {
		alias = max(alias, uint64(lv.SizeBytes/lv.Ways))
		maxWays = max(maxWays, lv.Ways)
	}
	// At most one set span long, so the range is above every alias.
	n := 1 + rng.IntN(min(300, int(alias/64)))
	base = uint64(maxWays)*alias + rng.Uint64N(1<<16)*64
	for i := 0; i < n; i++ {
		if rng.IntN(2) == 0 {
			continue
		}
		for j := 1 + rng.IntN(maxWays-1); j > 0; j-- {
			addr := base + uint64(i)*64 - uint64(j)*alias
			p.Access(addr)
			ptwin.Access(addr)
		}
	}
	if err := checkAccessRange(p, ptwin, base, n); err != nil {
		return fmt.Errorf("partly filled sets: %v", err)
	}
	return nil
}

// TestAccessRangeMatchesPerLineLoop pins AccessRange to the per-line
// Access loop it replaced, from random pre-states, for empty ranges,
// unaligned bases, ranges crossing chunk boundaries and ranges up to
// the SysIO maximum (1 MiB/256 + 4 lines), longer than the L1 and L2
// set counts so the walk evicts its own head; then for sequences of
// overlapping kernel windows (kernelWindows), which reach the recorded
// range, the changed-set mask and the fresh-line path; and fresh-line
// installs into empty and partly filled sets (fillStates).
func TestAccessRangeMatchesPerLineLoop(t *testing.T) {
	for name, cfg := range map[string]HierarchyConfig{"default": DefaultConfig(), "small": smallConfig()} {
		t.Run(name, func(t *testing.T) {
			span := uint64(cfg.LLC.SizeBytes) * 2
			chunkBytes := uint64(chunkSets * cfg.L1.LineBytes)
			rng := rand.New(rand.NewPCG(7, 11))
			for round := 0; round < 40; round++ {
				h, twin := rangeTwins(cfg, uint64(round), 5_000, span)
				// Several ranges per pre-state, each starting from what
				// the previous one left.
				last := func() uint64 { return (h.lastLine - 1) << h.l1Shift }
				cases := []struct {
					base func() uint64
					n    int
				}{
					{func() uint64 { return rng.Uint64N(span) }, 0},
					{func() uint64 { return rng.Uint64N(span) }, 1 + rng.IntN(64)},                 // unaligned
					{func() uint64 { return rng.Uint64N(span/chunkBytes)*chunkBytes - 64*16 }, 32}, // crosses a chunk boundary
					{func() uint64 { return rng.Uint64N(span) &^ 63 }, 1 + rng.IntN(4100)},         // up to the SysIO maximum
					{func() uint64 { return 0xffff_8000_0000_0000 + uint64(round)*64 }, 4100},      // kernel region, full SysIO walk
					{func() uint64 { return 0xffff_8000_0000_0000 + uint64(round)*64 + 64 }, 32},   // the next switch's slide
					{last, 3}, // starts on lastLine
					{func() uint64 { return last() - 64 }, 8}, // starts just before it
				}
				for _, c := range cases {
					if err := checkAccessRange(h, twin, c.base(), c.n); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				if err := kernelWindows(h, twin, cfg, rng, span); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				h.Release()
				twin.Release()
				if err := fillStates(cfg, rng); err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
			}
		})
	}
}

// FuzzAccessRange searches for a pre-state and a pair of consecutive
// ranges on which AccessRange and the per-line Access loop disagree.
// The second range starts slide lines after the first, so it can meet
// the range the first one recorded.
func FuzzAccessRange(f *testing.F) {
	f.Add(uint64(1), uint16(500), uint64(0x1000), uint16(32), int8(1), uint16(32), false)
	f.Add(uint64(2), uint16(2000), uint64(0x3fc3), uint16(4100), int8(3), uint16(32), false)
	f.Add(uint64(3), uint16(0), uint64(0), uint16(0), int8(0), uint16(0), true)
	f.Add(uint64(4), uint16(3000), uint64(0xffff_8000_0000_0040), uint16(4100), int8(8), uint16(64), true)
	f.Add(uint64(5), uint16(800), ^uint64(0)-100, uint16(9), int8(-2), uint16(9), false)
	f.Add(uint64(6), uint16(1500), uint64(0xffff_8000_0000_0000), uint16(32), int8(-70), uint16(140), false)
	f.Add(uint64(7), uint16(700), uint64(0x8000), uint16(8), int8(2), uint16(8), true)
	// Ranges above the pre-state's span take the install path: into
	// empty sets (no pre-state) and into partly filled ones.
	f.Add(uint64(8), uint16(0), uint64(0x4000), uint16(4100), int8(40), uint16(300), false)
	f.Add(uint64(9), uint16(0), uint64(0x100), uint16(700), int8(-3), uint16(64), true)
	f.Add(uint64(10), uint16(3000), uint64(0x100_0000), uint16(4100), int8(64), uint16(4100), false)
	f.Add(uint64(11), uint16(150), uint64(0x2_0000), uint16(600), int8(5), uint16(32), true)
	f.Fuzz(func(t *testing.T, seed uint64, ops uint16, base uint64, n uint16, slide int8, n2 uint16, small bool) {
		cfg := DefaultConfig()
		if small {
			cfg = smallConfig()
		}
		h, twin := rangeTwins(cfg, seed, int(ops%4096), uint64(cfg.LLC.SizeBytes)*2)
		defer h.Release()
		defer twin.Release()
		if err := checkAccessRange(h, twin, base, int(n%4200)); err != nil {
			t.Fatal(err)
		}
		if err := checkAccessRange(h, twin, base+uint64(int64(slide))*64, int(n2%4200)); err != nil {
			t.Fatalf("second range: %v", err)
		}
	})
}
