// Package cache models a per-core cache hierarchy: split L1 (only the
// data side is simulated, since the ISA has no instruction fetch
// traffic), a unified L2, and a shared-by-convention LLC. Caches are
// set-associative with LRU replacement.
//
// The hierarchy returns, for each access, the latency in cycles and the
// set of miss events that occurred, which the CPU feeds into the PMU.
// The model is deliberately simple — no coherence traffic, no MSHRs —
// because the reproduced paper's results depend on access *costs* and
// event *counts*, not on detailed memory-system timing.
package cache

import (
	"math/bits"

	"limitsim/internal/freelist"
)

// Level identifies a cache level for miss reporting.
type Level uint8

// Cache levels.
const (
	L1 Level = iota
	L2
	LLC
	Memory
)

func (l Level) String() string {
	switch l {
	case L1:
		return "L1"
	case L2:
		return "L2"
	case LLC:
		return "LLC"
	case Memory:
		return "Memory"
	}
	return "cache?"
}

// Config describes one cache level.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // line size, power of two
	Ways      int // associativity
	HitCycles int // latency on hit at this level
}

// Result describes the outcome of one access.
type Result struct {
	// Cycles is the total access latency.
	Cycles uint64
	// MissL1, MissL2, MissLLC report which levels missed.
	MissL1  bool
	MissL2  bool
	MissLLC bool
}

// Sets are grouped into chunks of chunkSets, each chunk's tag state
// allocated on first touch. Machines are built per run by the campaign
// worker pools, and eagerly allocating the LLC's thousands of sets
// dominated construction time for short runs.
const (
	chunkSetBits = 6
	chunkSets    = 1 << chunkSetBits
)

// freeChunks recycles tag chunks across hierarchies, filled by FlushAll
// and Release and drained by first touches. Zero tags mean invalid, so
// a chunk zeroed on take reads as freshly built.
var freeChunks freelist.List[uint64]

// cacheLevel is a single set-associative cache. Tag state lives in
// flat per-chunk arrays: set s occupies the ways
// [(s%chunkSets)*Ways, ...) of chunk s/chunkSets, in LRU order (index
// 0 most recent). Entries store tag+1 so that zero — the state of a
// freshly allocated chunk — means invalid.
type cacheLevel struct {
	cfg       Config
	setMask   uint64
	lineShift uint
	tagShift  uint   // log2(nsets), precomputed off the access path
	hitLat    uint64 // cfg.HitCycles, widened once
	ways      int
	chunkLen  int // ways per chunk: min(chunkSets, nsets) * ways
	chunks    [][]uint64
}

func newLevel(cfg Config) *cacheLevel {
	lines := cfg.SizeBytes / cfg.LineBytes
	nsets := lines / cfg.Ways
	if nsets < 1 {
		nsets = 1
	}
	// nsets must be a power of two for mask indexing.
	for nsets&(nsets-1) != 0 {
		nsets--
	}
	setsPerChunk := nsets
	if setsPerChunk > chunkSets {
		setsPerChunk = chunkSets
	}
	return &cacheLevel{
		cfg:       cfg,
		setMask:   uint64(nsets - 1),
		lineShift: log2(uint64(cfg.LineBytes)),
		tagShift:  log2(uint64(nsets)),
		hitLat:    uint64(cfg.HitCycles),
		ways:      cfg.Ways,
		chunkLen:  setsPerChunk * cfg.Ways,
		chunks:    make([][]uint64, (nsets+chunkSets-1)/chunkSets),
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// setWays returns set si's ways, materializing the chunk if needed.
func (c *cacheLevel) setWays(si uint64) []uint64 {
	ch := c.chunks[si>>chunkSetBits]
	if ch == nil {
		ch = freeChunks.Take(c.chunkLen)
		c.chunks[si>>chunkSetBits] = ch
	}
	lo := (int(si) & (chunkSets - 1)) * c.ways
	return ch[lo : lo+c.ways : lo+c.ways]
}

// access probes the level and installs the line on miss. Returns true on
// hit.
func (c *cacheLevel) access(addr uint64) bool {
	line := addr >> c.lineShift
	tag := (line >> c.tagShift) + 1
	ws := c.setWays(line & c.setMask)
	// MRU fast path: a hit in way 0 needs no LRU reordering.
	if ws[0] == tag {
		return true
	}
	for i, t := range ws {
		if t == tag {
			// Move to MRU position.
			copy(ws[1:i+1], ws[:i])
			ws[0] = tag
			return true
		}
	}
	// Miss: evict LRU (last way), install at MRU.
	copy(ws[1:], ws[:len(ws)-1])
	ws[0] = tag
	return false
}

// recycle hands every materialized chunk to the free list and leaves
// its slot nil, so the level reads as freshly built.
func (c *cacheLevel) recycle() {
	freeChunks.Put(c.chunks...)
	clear(c.chunks)
}

// install puts lines [lo, hi), which the level does not hold, at the MRU
// way of their sets in order, exactly as a miss on each would: no tag
// search, and one chunk lookup per run of consecutive sets. The lines
// must be this level's own line numbers.
func (c *cacheLevel) install(lo, hi uint64) {
	perChunk := uint64(c.chunkLen / c.ways)
	for line := lo; line < hi; {
		si := line & c.setMask
		ch := c.chunks[si>>chunkSetBits]
		if ch == nil {
			ch = freeChunks.Take(c.chunkLen)
			c.chunks[si>>chunkSetBits] = ch
		}
		off := si & (chunkSets - 1)
		end := min(hi, line+perChunk-off)
		for w := int(off) * c.ways; line < end; line, w = line+1, w+c.ways {
			ws := ch[w : w+c.ways : w+c.ways]
			copy(ws[1:], ws)
			ws[0] = line>>c.tagShift + 1
		}
	}
}

// Hierarchy is a three-level cache hierarchy plus a memory latency.
type Hierarchy struct {
	l1, l2, llc *cacheLevel
	memCycles   int

	// lastLine is the most recently accessed line number plus one
	// (zero = invalid), with l1Shift/l1Lat copied off *l1. After any
	// access the line is resident at L1's MRU way, so a repeat access
	// is an L1 hit that moves no LRU state and raises no events —
	// Access answers it inline with one compare.
	lastLine uint64
	l1Shift  uint
	l1Lat    uint64

	// AccessRange's shortcuts, used only when every level has
	// rangeStride-byte lines (uniform), so one line number names the
	// same line at every level.
	//
	// high is one past the highest line ever accessed. Tags enter a
	// level only through an access, so no level holds a line at or
	// above it.
	//
	// [rLo, rHi) is the last walk no longer than L1's set count, when
	// that count is at most 64 (rangeSets, else zero): each of its
	// lines sat at its set's MRU way when the walk ended. Bit s of
	// changed marks L1 set s as possibly altered since then; a line of
	// the range in an unmarked set is still an MRU hit.
	uniform   bool
	high      uint64
	rLo, rHi  uint64
	changed   uint64
	rangeSets int
}

// HierarchyConfig configures a Hierarchy.
type HierarchyConfig struct {
	L1, L2, LLC  Config
	MemoryCycles int
}

// DefaultConfig returns a hierarchy resembling a 2011-era x86 core:
// 32 KiB 8-way L1 (4 cycles), 256 KiB 8-way L2 (12 cycles), 8 MiB
// 16-way LLC (40 cycles), 200-cycle memory.
func DefaultConfig() HierarchyConfig {
	return HierarchyConfig{
		L1:           Config{SizeBytes: 32 << 10, LineBytes: 64, Ways: 8, HitCycles: 4},
		L2:           Config{SizeBytes: 256 << 10, LineBytes: 64, Ways: 8, HitCycles: 12},
		LLC:          Config{SizeBytes: 8 << 20, LineBytes: 64, Ways: 16, HitCycles: 40},
		MemoryCycles: 200,
	}
}

// NewHierarchy builds a hierarchy from the config.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	h := &Hierarchy{
		l1:        newLevel(cfg.L1),
		l2:        newLevel(cfg.L2),
		llc:       newLevel(cfg.LLC),
		memCycles: cfg.MemoryCycles,
	}
	h.l1Shift = h.l1.lineShift
	h.l1Lat = h.l1.hitLat
	h.uniform = cfg.L1.LineBytes == rangeStride && cfg.L2.LineBytes == rangeStride && cfg.LLC.LineBytes == rangeStride
	if nsets := int(h.l1.setMask) + 1; h.uniform && nsets <= 64 {
		h.rangeSets = nsets
	}
	return h
}

// NewDefault builds a hierarchy with DefaultConfig.
func NewDefault() *Hierarchy { return NewHierarchy(DefaultConfig()) }

// Access simulates a load or store to addr and returns latency and miss
// events. Stores are write-allocate and cost the same as loads in this
// model. Small enough to inline: the repeat-line case never leaves the
// caller.
func (h *Hierarchy) Access(addr uint64) Result {
	if addr>>h.l1Shift+1 == h.lastLine {
		return Result{Cycles: h.l1Lat}
	}
	return h.accessSlow(addr)
}

func (h *Hierarchy) accessSlow(addr uint64) Result {
	line := addr >> h.l1Shift
	h.lastLine = line + 1
	h.high = max(h.high, line+1)
	h.changed |= 1 << (line & h.l1.setMask)
	if h.l1.access(addr) {
		return Result{Cycles: h.l1.hitLat}
	}
	r := Result{MissL1: true}
	if h.l2.access(addr) {
		r.Cycles = h.l2.hitLat
		return r
	}
	r.MissL2 = true
	if h.llc.access(addr) {
		r.Cycles = h.llc.hitLat
		return r
	}
	r.MissLLC = true
	r.Cycles = uint64(h.memCycles)
	return r
}

// rangeStride is the address step between AccessRange's accesses.
const rangeStride = 64

// rangeSums accumulates AccessRange's results.
type rangeSums struct{ cycles, missL1, missL2, missLLC uint64 }

// AccessRange performs the accesses Access(base + i*64) for i = 0 to
// n-1, in that order, and returns their summed cycles and the number of
// them that missed L1, L2 and the LLC. Tag state and lastLine end
// exactly as the per-line loop leaves them. Its cost grows with the
// lines whose state it changes rather than with n: with uniform line
// sizes, lines of the recorded range in unchanged L1 sets are counted
// as hits without loading a tag, and lines at or above high are
// installed as misses at every level without a tag search. The rest,
// and any range whose addresses wrap past 2^64, take the per-line walk.
func (h *Hierarchy) AccessRange(base uint64, n int) (cycles, missL1, missL2, missLLC uint64) {
	if n <= 0 {
		return
	}
	var s rangeSums
	if !h.uniform || uint64(n-1) > (^uint64(0)-base)/rangeStride {
		// Neither shortcut applies. A wrapping walk reached the top
		// line, so no line is fresh after it.
		h.walk(&s, base, n)
		h.rLo, h.rHi, h.high = 0, 0, ^uint64(0)/rangeStride+1
		return s.cycles, s.missL1, s.missL2, s.missLLC
	}
	first := base / rangeStride
	stop := first + uint64(n)
	line := first
	if line < h.rHi && h.rLo < stop {
		if line < h.rLo {
			h.walk(&s, line*rangeStride, int(h.rLo-line))
			line = h.rLo
		}
		hi := min(stop, h.rHi)
		h.rangeHits(&s, line, hi)
		line = hi
	}
	if below := min(stop, max(line, h.high)); line < below {
		h.walk(&s, line*rangeStride, int(below-line))
		line = below
	}
	if line < stop {
		k := stop - line
		h.l1.install(line, stop)
		h.l2.install(line, stop)
		h.llc.install(line, stop)
		s.cycles += k * uint64(h.memCycles)
		s.missL1 += k
		s.missL2 += k
		s.missLLC += k
		h.high = stop
	}
	h.lastLine = stop
	if n <= h.rangeSets {
		// The lines fall in distinct L1 sets, so each is now its set's MRU.
		h.rLo, h.rHi, h.changed = first, stop, 0
	} else {
		h.rLo, h.rHi = 0, 0
	}
	return s.cycles, s.missL1, s.missL2, s.missLLC
}

// rangeHits performs the accesses to lines [lo, hi) of the recorded
// range. Those in unchanged sets are MRU hits, counted by popcount; the
// others take the per-line walk in order. The lines fall in distinct L1
// sets, so none of the walks can move another line of the span.
func (h *Hierarchy) rangeHits(s *rangeSums, lo, hi uint64) {
	nsets, k := uint(h.rangeSets), uint(hi-lo)
	sh := uint(lo & h.l1.setMask)
	// Bit j of moved is set iff line lo+j's set changed: changed rotated
	// right by sh within nsets bits, cut to the k lines of the span.
	moved := (h.changed>>sh | h.changed<<(nsets-sh)) & (^uint64(0) >> (64 - k))
	s.cycles += uint64(k-uint(bits.OnesCount64(moved))) * h.l1Lat
	for ; moved != 0; moved &= moved - 1 {
		h.walk(s, (lo+uint64(bits.TrailingZeros64(moved)))*rangeStride, 1)
	}
}

// walk performs the n accesses Access(base + i*64) one line at a time,
// reading the L1 fields once and checking the MRU way inline; L2 and the
// LLC are probed only on an L1 miss. A line that takes L1's full access
// path marks its set in changed: a walk longer than L1's set count
// revisits sets, including those of the recorded range.
func (h *Hierarchy) walk(s *rangeSums, base uint64, n int) {
	l1 := h.l1
	shift, setMask, tagShift, ways := h.l1Shift, l1.setMask, l1.tagShift, l1.ways
	hitLat, last := h.l1Lat, h.lastLine
	for i := 0; i < n; i++ {
		addr := base + uint64(i)*rangeStride
		line := addr >> shift
		if line+1 == last {
			s.cycles += hitLat
			continue
		}
		last = line + 1
		si := line & setMask
		if ch := l1.chunks[si>>chunkSetBits]; ch != nil && ch[int(si&(chunkSets-1))*ways] == line>>tagShift+1 {
			s.cycles += hitLat
			continue
		}
		h.changed |= 1 << si
		if l1.access(addr) {
			s.cycles += hitLat
			continue
		}
		s.missL1++
		if h.l2.access(addr) {
			s.cycles += h.l2.hitLat
			continue
		}
		s.missL2++
		if h.llc.access(addr) {
			s.cycles += h.llc.hitLat
			continue
		}
		s.missLLC++
		s.cycles += uint64(h.memCycles)
	}
	h.lastLine = last
}

// FlushAll invalidates the entire hierarchy. Its chunks go back to the
// free list rather than to the garbage collector: flush storms would
// otherwise discard every chunk many times per run.
func (h *Hierarchy) FlushAll() {
	if h.l1.chunks == nil {
		panic("cache: FlushAll on a released Hierarchy")
	}
	h.lastLine = 0
	h.rLo, h.rHi = 0, 0
	h.l1.recycle()
	h.l2.recycle()
	h.llc.recycle()
}

// Release returns every chunk to the free list for later hierarchies to
// reuse. The hierarchy must not be used afterwards: its chunk tables
// are dropped, so any later Access, nonempty AccessRange or FlushAll
// panics.
func (h *Hierarchy) Release() {
	h.lastLine = 0
	h.rLo, h.rHi = 0, 0
	for _, lv := range []*cacheLevel{h.l1, h.l2, h.llc} {
		lv.recycle()
		lv.chunks = nil
	}
}
