package cache

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func lineOf(c *Cache, pattern byte) []byte {
	b := make([]byte, c.Config().LineSize)
	for i := range b {
		b[i] = pattern
	}
	return b
}

func TestFillAndRead(t *testing.T) {
	c := New(T3DL1Config())
	src := make([]byte, 32)
	binary.LittleEndian.PutUint64(src[8:], 0xabcdef)
	c.Fill(0x100, src)
	if !c.Lookup(0x108) {
		t.Fatal("filled line not resident")
	}
	out := make([]byte, 8)
	c.ReadData(0x108, out)
	if got := binary.LittleEndian.Uint64(out); got != 0xabcdef {
		t.Errorf("ReadData = %#x, want 0xabcdef", got)
	}
}

func TestDirectMappedConflict(t *testing.T) {
	c := New(T3DL1Config())
	// Two addresses one cache-size apart map to the same set and evict
	// each other in a direct-mapped cache.
	c.Fill(0, lineOf(c, 1))
	c.Fill(8<<10, lineOf(c, 2))
	if c.Contains(0) {
		t.Error("conflicting fill did not evict the first line")
	}
	if !c.Contains(8 << 10) {
		t.Error("second line not resident")
	}
}

func TestAnnexSynonymsShareASet(t *testing.T) {
	// Two synonyms differ only in Annex index bits (31..27). In the 8 KB
	// direct-mapped cache they map to the same set, so only one copy can
	// be resident — the paper's §3.4 argument that caching never creates
	// synonym inconsistency.
	c := New(T3DL1Config())
	const offset = 0x1040
	synA := int64(1)<<27 | offset
	synB := int64(2)<<27 | offset
	c.Fill(synA, lineOf(c, 0xAA))
	c.Fill(synB, lineOf(c, 0xBB))
	if c.Contains(synA) {
		t.Error("both synonym copies resident; direct mapping should allow only one")
	}
	if !c.Contains(synB) {
		t.Error("most recent synonym not resident")
	}
}

func TestTwoWayAssocHoldsConflictPair(t *testing.T) {
	cfg := Config{Size: 8 << 10, LineSize: 32, Assoc: 2}
	c := New(cfg)
	c.Fill(0, lineOf(c, 1))
	c.Fill(8<<10, lineOf(c, 2)) // same set in direct-mapped terms
	if !c.Contains(0) || !c.Contains(8<<10) {
		t.Error("2-way cache should hold both conflicting lines")
	}
	c.Fill(16<<10, lineOf(c, 3)) // evicts LRU (addr 0)
	if c.Contains(0) {
		t.Error("LRU line not evicted")
	}
	if !c.Contains(8<<10) || !c.Contains(16<<10) {
		t.Error("wrong victim chosen")
	}
}

func TestLRUUpdatedByLookup(t *testing.T) {
	cfg := Config{Size: 8 << 10, LineSize: 32, Assoc: 2}
	c := New(cfg)
	c.Fill(0, lineOf(c, 1))
	c.Fill(8<<10, lineOf(c, 2))
	c.Lookup(0) // make addr 0 most recently used
	c.Fill(16<<10, lineOf(c, 3))
	if !c.Contains(0) {
		t.Error("recently used line was evicted")
	}
	if c.Contains(8 << 10) {
		t.Error("LRU line survived")
	}
}

func TestWriteThroughNoAllocate(t *testing.T) {
	c := New(T3DL1Config())
	if c.WriteData(0x40, []byte{1, 2, 3, 4}) {
		t.Error("write miss reported a hit")
	}
	if c.Contains(0x40) {
		t.Error("write miss allocated a line")
	}
	c.Fill(0x40, lineOf(c, 0))
	if !c.WriteData(0x44, []byte{9, 9}) {
		t.Error("write hit reported a miss")
	}
	out := make([]byte, 2)
	c.ReadData(0x44, out)
	if out[0] != 9 || out[1] != 9 {
		t.Errorf("write hit did not update line: %v", out)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(T3DL1Config())
	c.Fill(0x200, lineOf(c, 5))
	if !c.Invalidate(0x210) { // same line
		t.Error("Invalidate missed a resident line")
	}
	if c.Contains(0x200) {
		t.Error("line still resident after Invalidate")
	}
	if c.Invalidate(0x200) {
		t.Error("Invalidate of absent line reported true")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := New(T3DL1Config())
	for i := int64(0); i < 16; i++ {
		c.Fill(i*32, lineOf(c, byte(i)))
	}
	if n := c.ResidentLines(); n != 16 {
		t.Fatalf("ResidentLines = %d, want 16", n)
	}
	c.InvalidateAll()
	if n := c.ResidentLines(); n != 0 {
		t.Errorf("ResidentLines after InvalidateAll = %d", n)
	}
}

func TestStats(t *testing.T) {
	c := New(T3DL1Config())
	c.Lookup(0)
	c.Fill(0, lineOf(c, 0))
	c.Lookup(0)
	if c.Hits != 1 || c.Misses != 1 {
		t.Errorf("Hits=%d Misses=%d, want 1/1", c.Hits, c.Misses)
	}
}

func TestCrossLinePanics(t *testing.T) {
	c := New(T3DL1Config())
	c.Fill(0, lineOf(c, 0))
	defer func() {
		if recover() == nil {
			t.Error("cross-line access did not panic")
		}
	}()
	c.ReadData(28, make([]byte, 8))
}

func TestPropertySameSetForSynonyms(t *testing.T) {
	// For any offset and any two annex indexes, the synonym pair maps to
	// the same set of the direct-mapped L1 (set index depends only on
	// low-order bits, annex bits are 27+).
	c := New(T3DL1Config())
	f := func(off uint32, a1, a2 uint8) bool {
		offset := int64(off) % (1 << 27)
		s1 := (int64(a1%32)<<27 | offset) / 32 % c.numSets
		s2 := (int64(a2%32)<<27 | offset) / 32 % c.numSets
		return s1 == s2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyLineAddrAligned(t *testing.T) {
	c := New(T3DL1Config())
	f := func(a uint32) bool {
		la := c.LineAddr(int64(a))
		return la%32 == 0 && la <= int64(a) && int64(a)-la < 32
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestNewAllocatesOneBackingArray pins cache.New's allocations: the
// cache, one array for every line and one for all their data. Every
// line's bytes sit beside the next line's in that one array, so a Fill
// or a WriteData that ends at a line's last byte must leave every other
// line as it was, whatever the associativity.
func TestNewAllocatesOneBackingArray(t *testing.T) {
	if n := testing.AllocsPerRun(10, func() { New(T3DL1Config()) }); n > 3 {
		t.Errorf("New(T3DL1Config()) = %v allocations, want at most 3", n)
	}
	for _, assoc := range []int{1, 2, 4} {
		c := New(Config{Size: 1 << 10, LineSize: 32, Assoc: assoc})
		n := c.Config().Size / c.Config().LineSize
		contents := func() [][]byte { // every line's bytes, by address
			out := make([][]byte, n)
			for k := range out {
				out[k] = make([]byte, 32)
				c.ReadData(int64(k)*32, out[k])
			}
			return out
		}
		for k := int64(0); k < n; k++ {
			c.Fill(k*32, lineOf(c, byte(k)))
		}
		if r := c.ResidentLines(); r != int(n) {
			t.Fatalf("%d-way: %d lines resident after filling %d", assoc, r, n)
		}
		check := func(before, after [][]byte, k int64, what string) {
			t.Helper()
			for j := range after {
				if int64(j) != k && !bytes.Equal(after[j], before[j]) {
					t.Fatalf("%d-way: %s line %d changed line %d: %x -> %x", assoc, what, k, j, before[j], after[j])
				}
			}
		}
		tail := bytes.Repeat([]byte{0xee}, 8)
		for k := int64(0); k < n; k++ {
			before := contents()
			if !c.WriteData(k*32+24, tail) {
				t.Fatalf("%d-way: line %d not resident", assoc, k)
			}
			after := contents()
			check(before, after, k, "WriteData to the end of")
			if !bytes.Equal(after[k][24:], tail) || !bytes.Equal(after[k][:24], before[k][:24]) {
				t.Fatalf("%d-way: line %d after WriteData = %x", assoc, k, after[k])
			}

			c.Invalidate(k * 32) // so the Fill takes this line's slot
			c.Fill(k*32, lineOf(c, byte(0x80|k)))
			before, after = after, contents()
			check(before, after, k, "Fill of")
			if !bytes.Equal(after[k], lineOf(c, byte(0x80|k))) {
				t.Fatalf("%d-way: line %d after Fill = %x", assoc, k, after[k])
			}
		}
	}
}
