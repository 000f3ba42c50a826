package tlb

import (
	"testing"
	"testing/quick"
)

func TestHitAfterMiss(t *testing.T) {
	tl := New(WorkstationConfig())
	if pen := tl.Lookup(0); pen != tl.Config().MissPenalty {
		t.Errorf("first lookup penalty = %d, want %d", pen, tl.Config().MissPenalty)
	}
	if pen := tl.Lookup(4096); pen != 0 {
		t.Errorf("same-page lookup penalty = %d, want 0", pen)
	}
}

func TestLRUEviction(t *testing.T) {
	cfg := Config{PageSize: 8 << 10, Entries: 2, MissPenalty: 20}
	tl := New(cfg)
	tl.Lookup(0 * cfg.PageSize)
	tl.Lookup(1 * cfg.PageSize)
	tl.Lookup(0 * cfg.PageSize)         // page 0 now MRU
	tl.Lookup(2 * cfg.PageSize)         // evicts page 1
	if !tl.Resident(0 * cfg.PageSize) { // MRU survived
		t.Error("MRU page evicted")
	}
	if tl.Resident(1 * cfg.PageSize) {
		t.Error("LRU page not evicted")
	}
}

func TestWorkingSetWithinEntriesNeverMisses(t *testing.T) {
	tl := New(WorkstationConfig())
	ps := tl.Config().PageSize
	n := int64(tl.Config().Entries)
	for i := int64(0); i < n; i++ {
		tl.Lookup(i * ps)
	}
	tl.Hits, tl.Misses = 0, 0
	for rep := 0; rep < 3; rep++ {
		for i := int64(0); i < n; i++ {
			if pen := tl.Lookup(i * ps); pen != 0 {
				t.Fatalf("page %d missed on repeat sweep", i)
			}
		}
	}
	if tl.Misses != 0 {
		t.Errorf("misses = %d on resident working set", tl.Misses)
	}
}

func TestT3DHugePagesCoverProbes(t *testing.T) {
	// An 8 MB probe array touches at most 3 T3D pages: far below the
	// 32-entry capacity, so no misses after the first touches.
	tl := New(T3DConfig())
	seen := map[int64]bool{}
	for addr := int64(0); addr < 8<<20; addr += 8 << 10 {
		seen[tl.PageOf(addr)] = true
	}
	if len(seen) > 32 {
		t.Errorf("8 MB array spans %d T3D pages; TLB would thrash", len(seen))
	}
}

func TestFlush(t *testing.T) {
	tl := New(WorkstationConfig())
	tl.Lookup(0)
	tl.Flush()
	if tl.Resident(0) {
		t.Error("page resident after Flush")
	}
}

func TestBadPageSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two page size did not panic")
		}
	}()
	New(Config{PageSize: 3000, Entries: 4, MissPenalty: 1})
}

func TestPropertyOccupancyBounded(t *testing.T) {
	tl := New(Config{PageSize: 8 << 10, Entries: 8, MissPenalty: 20})
	f := func(addrs []uint32) bool {
		for _, a := range addrs {
			tl.Lookup(int64(a))
		}
		return len(tl.entries) <= 8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertySecondLookupHits(t *testing.T) {
	f := func(a uint32) bool {
		tl := New(WorkstationConfig())
		tl.Lookup(int64(a))
		return tl.Lookup(int64(a)) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
