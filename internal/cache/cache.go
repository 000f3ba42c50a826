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

// Cache is a physically-addressed cache holding real data. Its state is
// two pointer-free arrays indexed by line number: set s is lines
// [s*Assoc, (s+1)*Assoc), and line i's bytes are data[i*LineSize :
// (i+1)*LineSize].
type Cache struct {
	cfg     Config
	numSets int64
	lines   []line
	data    []byte
	useSeq  uint64

	// Stats for probes and tests. ParityFlips counts bit flips injected
	// into resident lines (fault injection); ParityHits counts lookups
	// that found the resident line's parity bad.
	Hits, Misses            int64
	ParityFlips, ParityHits int64
}

type line struct {
	tag     int64 // full line address (addr / LineSize)
	lastUse uint64
	valid   bool
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
	return &Cache{
		cfg:     cfg,
		numSets: lines / int64(cfg.Assoc),
		lines:   make([]line, lines),
		data:    make([]byte, lines*cfg.LineSize),
	}
}

// Config returns the cache geometry.
func (c *Cache) Config() Config { return c.cfg }

// LineAddr returns the line-aligned base address containing addr.
func (c *Cache) LineAddr(addr int64) int64 { return addr &^ (c.cfg.LineSize - 1) }

// setOf returns the number of the first line in lineID's set.
func (c *Cache) setOf(lineID int64) int { return int(lineID%c.numSets) * c.cfg.Assoc }

// bytesOf returns line i's data, capped at its own end so a copy
// cannot run into the next line.
func (c *Cache) bytesOf(i int) []byte {
	lo, hi := int64(i)*c.cfg.LineSize, int64(i+1)*c.cfg.LineSize
	return c.data[lo:hi:hi]
}

// find returns the number of the resident line holding addr, or -1.
func (c *Cache) find(addr int64) int {
	lineID := addr / c.cfg.LineSize
	lo := c.setOf(lineID)
	for i := lo; i < lo+c.cfg.Assoc; i++ {
		if l := &c.lines[i]; l.valid && l.tag == lineID {
			return i
		}
	}
	return -1
}

// Lookup reports whether addr is resident, updating hit/miss statistics
// and LRU state.
func (c *Cache) Lookup(addr int64) bool {
	if i := c.find(addr); i >= 0 {
		c.useSeq++
		c.lines[i].lastUse = c.useSeq
		c.Hits++
		return true
	}
	c.Misses++
	return false
}

// Contains reports residency without touching statistics or LRU state.
func (c *Cache) Contains(addr int64) bool { return c.find(addr) >= 0 }

// ReadData copies bytes from a resident line into p. The range must lie
// within one line and the line must be resident.
func (c *Cache) ReadData(addr int64, p []byte) {
	i := c.mustFind(addr, len(p))
	copy(p, c.bytesOf(i)[addr%c.cfg.LineSize:])
}

// WriteData updates a resident line with p (the write-through hit path)
// and reports whether the line was resident. A miss writes nothing: the
// 21064 data cache does not allocate on writes.
func (c *Cache) WriteData(addr int64, p []byte) bool {
	if addr%c.cfg.LineSize+int64(len(p)) > c.cfg.LineSize {
		panic("cache: write crosses a line boundary")
	}
	i := c.find(addr)
	if i < 0 {
		return false
	}
	copy(c.bytesOf(i)[addr%c.cfg.LineSize:], p)
	return true
}

// Fill installs the line containing addr with the given line-sized data,
// evicting the LRU way of its set. src must be exactly one line.
func (c *Cache) Fill(addr int64, src []byte) {
	if int64(len(src)) != c.cfg.LineSize {
		panic(fmt.Sprintf("cache: Fill with %d bytes, want line size %d", len(src), c.cfg.LineSize))
	}
	lineID := addr / c.cfg.LineSize
	lo := c.setOf(lineID)
	v := lo // the victim
	for i := lo; i < lo+c.cfg.Assoc; i++ {
		l := &c.lines[i]
		if !l.valid {
			v = i
			break
		}
		if l.lastUse < c.lines[v].lastUse {
			v = i
		}
	}
	c.useSeq++
	c.lines[v] = line{valid: true, tag: lineID, lastUse: c.useSeq}
	copy(c.bytesOf(v), src)
}

// FlipBits XORs mask into the 64-bit word at addr if its line is
// resident, marking the line's parity bad, and reports whether it
// struck — the cache half of the memory fault model. A miss leaves the
// cache untouched (the fault belongs to DRAM then).
func (c *Cache) FlipBits(addr int64, mask uint64) bool {
	addr &^= 7
	i := c.find(addr)
	if i < 0 || mask == 0 {
		return false
	}
	word := c.bytesOf(i)[addr%c.cfg.LineSize:]
	for b := 0; b < 8; b++ {
		word[b] ^= byte(mask >> (8 * uint(b)))
	}
	c.lines[i].parityBad = true
	c.ParityFlips++
	return true
}

// ParityBad reports whether addr hits a resident line with bad parity,
// counting the detection. The caller (the CPU's load path) must
// invalidate and refill before consuming data.
func (c *Cache) ParityBad(addr int64) bool {
	if i := c.find(addr); i < 0 || !c.lines[i].parityBad {
		return false
	}
	c.ParityHits++
	return true
}

// Invalidate drops the line containing addr if resident, reporting whether
// it was. Used both for explicit flushes after cached remote reads (§4.4)
// and for the shell's cache-invalidate mode on incoming remote writes.
func (c *Cache) Invalidate(addr int64) bool {
	if i := c.find(addr); i >= 0 {
		c.lines[i].valid = false
		return true
	}
	return false
}

// InvalidateAll empties the cache (the batched whole-cache flush the
// paper's bulk cached-read path uses beyond 8 KB, §6.2 note 3).
func (c *Cache) InvalidateAll() {
	for i := range c.lines {
		c.lines[i].valid = false
	}
}

// ResidentLines counts valid lines (test/probe helper).
func (c *Cache) ResidentLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid {
			n++
		}
	}
	return n
}

func (c *Cache) mustFind(addr int64, n int) int {
	if addr%c.cfg.LineSize+int64(n) > c.cfg.LineSize {
		panic("cache: access crosses a line boundary")
	}
	i := c.find(addr)
	if i < 0 {
		panic(fmt.Sprintf("cache: data access to non-resident address %#x", addr))
	}
	return i
}
