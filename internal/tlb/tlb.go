// Package tlb models a translation look-aside buffer.
//
// The paper (§2.2, §3.4) finds that the T3D uses very large pages, so TLB
// misses never appear in its latency profiles and remote accesses through
// many Annex segments do not thrash the TLB. The DEC Alpha workstation of
// Figure 1, by contrast, uses 8 KB pages and shows a distinct inflection
// at an 8 KB stride from TLB misses. Both are instances of this model
// with different parameters.
//
// Translation itself is identity (the T3D constructs page tables so the
// Annex index is carried through, §3.2); the model charges time only.
package tlb

import (
	"fmt"

	"repro/internal/sim"
)

// Config describes a TLB.
type Config struct {
	PageSize    int64    // bytes; must be a power of two
	Entries     int      // fully-associative entry count
	MissPenalty sim.Time // cycles added to an access that misses
}

// T3DConfig returns the T3D node configuration: huge (4 MB) pages, so the
// 32 entries cover far more memory than any probe touches and misses are
// effectively never observed — the paper's "heritage of not supporting
// virtual memory".
func T3DConfig() Config {
	return Config{PageSize: 4 << 20, Entries: 32, MissPenalty: 30}
}

// WorkstationConfig returns the DEC Alpha workstation configuration:
// 8 KB pages and the 21064's 32-entry data TLB.
func WorkstationConfig() Config {
	return Config{PageSize: 8 << 10, Entries: 32, MissPenalty: 20}
}

// TLB is a fully-associative, LRU-replacement translation buffer.
type TLB struct {
	cfg     Config
	entries []entry // at most cfg.Entries resident pages, in no order
	useSeq  uint64

	Hits, Misses int64
}

// entry is one resident page and the sequence number of its last use;
// use values are unique, so the smallest names the one LRU victim.
type entry struct {
	page int64
	use  uint64
}

// New returns an empty TLB.
func New(cfg Config) *TLB {
	if cfg.PageSize <= 0 || cfg.PageSize&(cfg.PageSize-1) != 0 {
		panic(fmt.Sprintf("tlb: page size %d not a power of two", cfg.PageSize))
	}
	if cfg.Entries <= 0 {
		panic("tlb: need at least one entry")
	}
	return &TLB{cfg: cfg, entries: make([]entry, 0, cfg.Entries)}
}

// Config returns the TLB parameters.
func (t *TLB) Config() Config { return t.cfg }

// PageOf returns the page number containing addr.
func (t *TLB) PageOf(addr int64) int64 { return addr / t.cfg.PageSize }

// Lookup translates addr, returning the extra cycles charged (0 on a hit,
// MissPenalty on a miss). A miss installs the page, evicting the LRU
// entry if the TLB is full.
func (t *TLB) Lookup(addr int64) sim.Time {
	page := t.PageOf(addr)
	t.useSeq++
	if i := t.find(page); i >= 0 {
		t.entries[i].use = t.useSeq
		t.Hits++
		return 0
	}
	t.Misses++
	if n := len(t.entries); n < t.cfg.Entries {
		t.entries = t.entries[:n+1] // within the capacity New made
		t.entries[n] = entry{page, t.useSeq}
		return t.cfg.MissPenalty
	}
	lru := 0
	for i := range t.entries {
		if t.entries[i].use < t.entries[lru].use {
			lru = i
		}
	}
	t.entries[lru] = entry{page, t.useSeq}
	return t.cfg.MissPenalty
}

// find returns the index of page's entry, or -1 if it is not resident.
func (t *TLB) find(page int64) int {
	for i := range t.entries {
		if t.entries[i].page == page {
			return i
		}
	}
	return -1
}

// Resident reports whether addr's page is currently mapped.
func (t *TLB) Resident(addr int64) bool { return t.find(t.PageOf(addr)) >= 0 }

// Flush empties the TLB.
func (t *TLB) Flush() { t.entries = t.entries[:0] }
