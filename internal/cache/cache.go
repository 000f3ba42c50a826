// Package cache models the physically-addressed caches of the Alpha 21064
// node: the 8 KB direct-mapped, write-through, read-allocate on-chip data
// cache of the T3D node, and (with different parameters) the 512 KB
// board-level L2 cache of the DEC Alpha workstation used for comparison in
// Figure 1 of the paper.
//
// The cache stores real line data. This matters for two of the paper's
// findings: cached remote reads are not kept coherent (a line fetched from
// a remote node goes stale if its owner updates it, §4.4), and Annex
// synonyms — two physical addresses differing only in their high-order
// Annex index bits — always map to the same cache set of a direct-mapped
// cache, so at most one copy can be resident and caching never produces
// inconsistency (§3.4). Both fall out of ordinary physical tag handling.
//
// Timing is charged by the CPU model, not here: hits are part of the
// issue cost, misses pay the fill path, and an explicit line flush costs
// an off-chip access (23 cycles, §4.4).
package cache

import "fmt"

// Config describes a cache's geometry.
type Config struct {
	Size     int64 // total bytes
	LineSize int64 // bytes per line
	Assoc    int   // ways per set; 1 = direct mapped
}

// MaxLineSize is the widest line the machine models run: the CPU and the
// shell stage a line fill in a fixed buffer of this size rather than
// allocating one per miss.
const MaxLineSize = 128

// T3DL1Config is the on-chip data cache of the 21064: 8 KB, direct-mapped,
// 32-byte lines.
func T3DL1Config() Config { return Config{Size: 8 << 10, LineSize: 32, Assoc: 1} }

// WorkstationL2Config is the 512 KB board cache of the DEC Alpha
// workstation in Figure 1.
func WorkstationL2Config() Config { return Config{Size: 512 << 10, LineSize: 32, Assoc: 1} }

// Cache is a physically-addressed cache holding real data.
type Cache struct {
	cfg     Config
	numSets int64
	sets    [][]line
	useSeq  uint64

	// Stats for probes and tests. ParityFlips counts bit flips injected
	// into resident lines (fault injection); ParityHits counts lookups
	// that found the resident line's parity bad.
	Hits, Misses            int64
	ParityFlips, ParityHits int64
}

type line struct {
	valid   bool
	tag     int64 // full line address (addr / LineSize)
	data    []byte
	lastUse uint64
	// parityBad marks a line whose SRAM bits were flipped after the
	// fill. The 21064's data cache is parity-protected, not ECC: a hit
	// on such a line is *detected*, never silently consumed, and the
	// recovery is an invalidate + refill — the write-through cache
	// guarantees DRAM still holds the truth for every clean line.
	parityBad bool
}

// New returns an empty cache.
func New(cfg Config) *Cache {
	if cfg.Assoc <= 0 || cfg.LineSize <= 0 || cfg.Size <= 0 {
		panic(fmt.Sprintf("cache: invalid config %+v", cfg))
	}
	lines := cfg.Size / cfg.LineSize
	if lines%int64(cfg.Assoc) != 0 {
		panic("cache: lines not divisible by associativity")
	}
	numSets := lines / int64(cfg.Assoc)
	c := &Cache{cfg: cfg, numSets: numSets, sets: make([][]line, numSets)}
	// One backing array for every line and one for all their data. Each
	// slice is capped at its own end, so a copy cannot run into the next.
	all := make([]line, lines)
	data := make([]byte, lines*cfg.LineSize)
	for i := range all {
		lo, hi := int64(i)*cfg.LineSize, int64(i+1)*cfg.LineSize
		all[i].data = data[lo:hi:hi]
	}
	for i := range c.sets {
		lo, hi := i*cfg.Assoc, (i+1)*cfg.Assoc
		c.sets[i] = all[lo:hi:hi]
	}
	return c
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned base address containing addr.
func (c *Cache) LineAddr(addr int64) int64 { return addr &^ (c.cfg.LineSize - 1) }

func (c *Cache) setOf(lineID int64) []line { return c.sets[lineID%c.numSets] }

func (c *Cache) find(addr int64) *line {
	lineID := addr / c.cfg.LineSize
	for i := range c.setOf(lineID) {
		l := &c.setOf(lineID)[i]
		if l.valid && l.tag == lineID {
			return l
		}
	}
	return nil
}

// Lookup reports whether addr is resident, updating hit/miss statistics
// and LRU state.
func (c *Cache) Lookup(addr int64) bool {
	if l := c.find(addr); l != nil {
		c.useSeq++
		l.lastUse = c.useSeq
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Contains reports residency without touching statistics or LRU state.
func (c *Cache) Contains(addr int64) bool { return c.find(addr) != nil }

// ReadData copies bytes from a resident line into p. The range must lie
// within one line and the line must be resident.
func (c *Cache) ReadData(addr int64, p []byte) {
	l := c.mustFind(addr, len(p))
	off := addr % c.cfg.LineSize
	copy(p, l.data[off:])
}

// WriteData updates a resident line with p (the write-through hit path)
// and reports whether the line was resident. A miss writes nothing: the
// 21064 data cache does not allocate on writes.
func (c *Cache) WriteData(addr int64, p []byte) bool {
	if addr%c.cfg.LineSize+int64(len(p)) > c.cfg.LineSize {
		panic("cache: write crosses a line boundary")
	}
	l := c.find(addr)
	if l == nil {
		return false
	}
	off := addr % c.cfg.LineSize
	copy(l.data[off:], p)
	return true
}

// Fill installs the line containing addr with the given line-sized data,
// evicting the LRU way of its set. src must be exactly one line.
func (c *Cache) Fill(addr int64, src []byte) {
	if int64(len(src)) != c.cfg.LineSize {
		panic(fmt.Sprintf("cache: Fill with %d bytes, want line size %d", len(src), c.cfg.LineSize))
	}
	lineID := addr / c.cfg.LineSize
	set := c.setOf(lineID)
	victim := &set[0]
	for i := range set {
		l := &set[i]
		if !l.valid {
			victim = l
			break
		}
		if l.lastUse < victim.lastUse {
			victim = l
		}
	}
	c.useSeq++
	victim.valid = true
	victim.tag = lineID
	victim.lastUse = c.useSeq
	victim.parityBad = false
	copy(victim.data, src)
}

// FlipBits XORs mask into the 64-bit word at addr if its line is
// resident, marking the line's parity bad, and reports whether it
// struck — the cache half of the memory fault model. A miss leaves the
// cache untouched (the fault belongs to DRAM then).
func (c *Cache) FlipBits(addr int64, mask uint64) bool {
	addr &^= 7
	l := c.find(addr)
	if l == nil || mask == 0 {
		return false
	}
	off := addr % c.cfg.LineSize
	for i := 0; i < 8; i++ {
		l.data[off+int64(i)] ^= byte(mask >> (8 * uint(i)))
	}
	l.parityBad = true
	c.ParityFlips++
	return true
}

// ParityBad reports whether addr hits a resident line with bad parity,
// counting the detection. The caller (the CPU's load path) must
// invalidate and refill before consuming data.
func (c *Cache) ParityBad(addr int64) bool {
	l := c.find(addr)
	if l == nil || !l.parityBad {
		return false
	}
	c.ParityHits++
	return true
}

// Invalidate drops the line containing addr if resident, reporting whether
// it was. Used both for explicit flushes after cached remote reads (§4.4)
// and for the shell's cache-invalidate mode on incoming remote writes.
func (c *Cache) Invalidate(addr int64) bool {
	if l := c.find(addr); l != nil {
		l.valid = false
		return true
	}
	return false
}

// InvalidateAll empties the cache (the batched whole-cache flush the
// paper's bulk cached-read path uses beyond 8 KB, §6.2 note 3).
func (c *Cache) InvalidateAll() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			c.sets[si][wi].valid = false
		}
	}
}

// ResidentLines counts valid lines (test/probe helper).
func (c *Cache) ResidentLines() int {
	n := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid {
				n++
			}
		}
	}
	return n
}

func (c *Cache) mustFind(addr int64, n int) *line {
	if addr%c.cfg.LineSize+int64(n) > c.cfg.LineSize {
		panic("cache: access crosses a line boundary")
	}
	l := c.find(addr)
	if l == nil {
		panic(fmt.Sprintf("cache: data access to non-resident address %#x", addr))
	}
	return l
}
