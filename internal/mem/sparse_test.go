package mem

import (
	"bytes"
	"encoding/binary"
	"math/bits"
	"math/rand"
	"slices"
	"testing"
)

// byteModel is the dense reference for the page store: memory as one
// flat []byte holding the raw (possibly corrupted) bytes, plus the
// flipped-bit mask of every faulted word, with ecc.go's repair and
// overwrite rules restated over it.
type byteModel struct {
	data  []byte
	masks map[int64]uint64
	ecc   bool
}

func (m *byteModel) setMask(w int64, mk uint64) {
	if mk == 0 {
		delete(m.masks, w)
	} else {
		m.masks[w] = mk
	}
}

func (m *byteModel) write(addr int64, p []byte) {
	end := addr + int64(len(p))
	for w := addr &^ 7; w < end; w += 8 {
		mk, ok := m.masks[w]
		if !ok {
			continue
		}
		for b := max(w, addr); b < min(w+8, end); b++ {
			mk &^= 0xFF << (8 * uint(b-w))
		}
		m.setMask(w, mk)
	}
	copy(m.data[addr:], p)
}

func (m *byteModel) flip(w int64, mask uint64) {
	binary.LittleEndian.PutUint64(m.data[w:], binary.LittleEndian.Uint64(m.data[w:])^mask)
	m.setMask(w, m.masks[w]^mask)
}

// repair applies ECC to the words starting at each of ws: single-bit
// faults are undone in place. It returns how many it repaired and the
// uncorrectable words among ws.
func (m *byteModel) repair(ws []int64) (repaired int, poisoned []int64) {
	if !m.ecc {
		return 0, nil
	}
	for _, w := range ws {
		mk, ok := m.masks[w]
		switch {
		case !ok:
		case bits.OnesCount64(mk) >= 2:
			poisoned = append(poisoned, w)
		default:
			m.flip(w, mk)
			repaired++
		}
	}
	return repaired, poisoned
}

// overlapping returns the words a read of [addr, addr+n) touches;
// within returns the words that start inside it (ScrubRange's rule).
func overlapping(addr, n int64) (ws []int64) {
	for w := addr &^ 7; w < addr+n; w += 8 {
		ws = append(ws, w)
	}
	return ws
}

func within(addr, n int64) (ws []int64) {
	for w := (addr + 7) &^ 7; w < addr+n; w += 8 {
		ws = append(ws, w)
	}
	return ws
}

// populate allocates every missing page: a DRAM with no missing page
// runs only the present-page paths, the dense control for the sparse one.
func populate(d *DRAM) {
	for i, pg := range d.pages {
		if pg == nil {
			d.pages[i] = new(page)
		}
	}
}

func presentPages(d *DRAM) (n int) {
	for _, pg := range d.pages {
		if pg != nil {
			n++
		}
	}
	return n
}

// TestSparseMatchesDense drives a sparse DRAM, the same DRAM with every
// page allocated, and the byte model through one seeded random sequence
// of reads, writes, flips, ECC reads, scrubs, snapshots, restores and
// zeroings, many of them straddling a page boundary. After every
// operation the returned values, the memory image and the integrity
// counters must agree, and a read must leave the sparse page set as it
// found it.
func TestSparseMatchesDense(t *testing.T) {
	const size = 64 << 10 // 16 pages
	seeds := int64(4)
	if testing.Short() {
		seeds = 1 // the race detector makes each seed cost seconds
	}
	for seed := int64(1); seed <= seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		sparse := New(T3DNodeConfig(size))
		full := New(T3DNodeConfig(size))
		populate(full)
		m := &byteModel{data: make([]byte, size), masks: map[int64]uint64{}}
		img := make([]byte, size)

		// addr picks n bytes' start: anywhere, word-aligned, within n
		// bytes of a page boundary so a good share straddle one, or
		// overlapping a recently flipped word so ECC paths get exercised.
		var flipped []int64
		addr := func(n int64) int64 {
			var a int64
			switch k := r.Intn(4); {
			case k == 0:
				a = r.Int63n(size)
			case k == 1:
				a = r.Int63n(size) &^ (n - 1)
			case k == 2 || len(flipped) == 0:
				a = r.Int63n(size/pageSize)*pageSize - n + r.Int63n(2*n)
			default:
				a = flipped[r.Intn(len(flipped))] + r.Int63n(8) - r.Int63n(n)
			}
			return min(max(a, 0), size-n)
		}
		randBytes := func(n int64) []byte {
			p := make([]byte, n)
			r.Read(p)
			return p
		}
		flipMask := func() uint64 {
			switch r.Intn(3) {
			case 0:
				return 1 << r.Intn(64)
			case 1:
				return 1<<r.Intn(32) | 1<<(32+r.Intn(32))
			default:
				return r.Uint64()
			}
		}

		for op := 0; op < 4000; op++ {
			before := presentPages(sparse)
			read := true
			var kind string
			switch k := r.Intn(15); k {
			case 0, 1:
				kind = "Write"
				n := 1 + r.Int63n(64)
				a, p := addr(n), randBytes(n)
				sparse.Write(a, p)
				full.Write(a, p)
				m.write(a, p)
				read = false
			case 2:
				kind = "Write64"
				a, v := addr(8), r.Uint64()
				sparse.Write64(a, v)
				full.Write64(a, v)
				m.write(a, binary.LittleEndian.AppendUint64(nil, v))
				read = false
			case 3:
				kind = "Write32"
				a, v := addr(4), r.Uint32()
				sparse.Write32(a, v)
				full.Write32(a, v)
				m.write(a, binary.LittleEndian.AppendUint32(nil, v))
				read = false
			case 4:
				kind = "Read"
				n := 1 + r.Int63n(64)
				a := addr(n)
				got, ctl := randBytes(n), make([]byte, n)
				sparse.Read(a, got)
				full.Read(a, ctl)
				m.repair(overlapping(a, n))
				if want := m.data[a : a+n]; !bytes.Equal(got, want) || !bytes.Equal(ctl, want) {
					t.Fatalf("seed %d op %d: Read(%#x, %d) = %x, dense %x, model %x", seed, op, a, n, got, ctl, want)
				}
			case 5:
				kind = "Read64"
				a := addr(8)
				got, ctl := sparse.Read64(a), full.Read64(a)
				m.repair(overlapping(a, 8))
				if want := binary.LittleEndian.Uint64(m.data[a:]); got != want || ctl != want {
					t.Fatalf("seed %d op %d: Read64(%#x) = %#x, dense %#x, model %#x", seed, op, a, got, ctl, want)
				}
			case 6:
				kind = "Read32"
				a := addr(4)
				got, ctl := sparse.Read32(a), full.Read32(a)
				m.repair(overlapping(a, 4))
				if want := binary.LittleEndian.Uint32(m.data[a:]); got != want || ctl != want {
					t.Fatalf("seed %d op %d: Read32(%#x) = %#x, dense %#x, model %#x", seed, op, a, got, ctl, want)
				}
			case 7, 8:
				kind = "InjectFlip"
				a, mask := addr(8), flipMask()
				sparse.InjectFlip(a, mask)
				full.InjectFlip(a, mask)
				m.flip(a&^7, mask)
				if flipped = append(flipped, a&^7); len(flipped) > 32 {
					flipped = flipped[1:]
				}
				read = false
			case 9:
				kind = "ReadChecked"
				n := 1 + r.Int63n(64)
				a := addr(n)
				got, ctl := randBytes(n), make([]byte, n)
				c, pw := sparse.ReadChecked(a, got)
				cc, cpw := full.ReadChecked(a, ctl)
				mc, mpw := m.repair(overlapping(a, n))
				if want := m.data[a : a+n]; !bytes.Equal(got, want) || !bytes.Equal(ctl, want) {
					t.Fatalf("seed %d op %d: ReadChecked(%#x, %d) = %x, dense %x, model %x", seed, op, a, n, got, ctl, want)
				}
				if c != mc || cc != mc || !slices.Equal(pw, mpw) || !slices.Equal(cpw, mpw) {
					t.Fatalf("seed %d op %d: ReadChecked(%#x, %d) corrected %d/%d poisoned %v/%v, model %d %v",
						seed, op, a, n, c, cc, pw, cpw, mc, mpw)
				}
			case 10:
				kind = "Read64Checked"
				a := addr(8)
				v, c, p := sparse.Read64Checked(a)
				cv, cc, cp := full.Read64Checked(a)
				mc, mpw := m.repair(overlapping(a, 8))
				want := binary.LittleEndian.Uint64(m.data[a:])
				if v != want || cv != want || c != mc || cc != mc || p != (len(mpw) > 0) || cp != p {
					t.Fatalf("seed %d op %d: Read64Checked(%#x) = %#x/%d/%v, dense %#x/%d/%v, model %#x/%d/%v",
						seed, op, a, v, c, p, cv, cc, cp, want, mc, len(mpw) > 0)
				}
			case 11:
				kind = "ScrubRange"
				n := 1 + r.Int63n(3*pageSize)
				a := addr(n)
				got, ctl := sparse.ScrubRange(a, n), full.ScrubRange(a, n)
				want, _ := m.repair(within(a, n))
				if got != want || ctl != want {
					t.Fatalf("seed %d op %d: ScrubRange(%#x, %d) = %d, dense %d, model %d", seed, op, a, n, got, ctl, want)
				}
			case 12:
				kind = "SetECC"
				m.ecc = !m.ecc
				sparse.SetECC(m.ecc)
				full.SetECC(m.ecc)
			case 13:
				kind = "Snapshot+Restore"
				// Snapshot into a dirty buffer: pages never written must
				// come out as zeros, not as the buffer's old bytes.
				r.Read(img)
				if got := sparse.Snapshot(img); !bytes.Equal(got, m.data) {
					t.Fatalf("seed %d op %d: Snapshot differs from the model", seed, op)
				}
				// Restore an image whose pages are zero, random, or the
				// current contents.
				for pg := int64(0); pg < size; pg += pageSize {
					switch r.Intn(3) {
					case 0:
						clear(img[pg : pg+pageSize])
					case 1:
						r.Read(img[pg : pg+pageSize])
					}
				}
				sparse.Restore(img)
				full.Restore(img)
				populate(full)
				copy(m.data, img)
				clear(m.masks)
				for i, pg := range sparse.pages {
					if zero := allZero(img[i*pageSize : (i+1)*pageSize]); (pg == nil) != zero {
						t.Fatalf("seed %d op %d: after Restore page %d present=%v, image page zero=%v", seed, op, i, pg != nil, zero)
					}
				}
				read = false
			default:
				kind = "Zero"
				sparse.Zero()
				full.Zero()
				populate(full)
				clear(m.data)
				clear(m.masks)
				if n := presentPages(sparse); n != 0 {
					t.Fatalf("seed %d op %d: %d pages present after Zero", seed, op, n)
				}
				read = false
			}
			if read && presentPages(sparse) != before {
				t.Fatalf("seed %d op %d: %s changed the present pages %d -> %d", seed, op, kind, before, presentPages(sparse))
			}
			if got := sparse.Snapshot(img); !bytes.Equal(got, m.data) {
				t.Fatalf("seed %d op %d: after %s the sparse image differs from the model", seed, op, kind)
			}
			if got := full.Snapshot(img); !bytes.Equal(got, m.data) {
				t.Fatalf("seed %d op %d: after %s the dense image differs from the model", seed, op, kind)
			}
			if s, f := sparse.Integrity(), full.Integrity(); s != f {
				t.Fatalf("seed %d op %d: after %s Integrity %+v, dense %+v", seed, op, kind, s, f)
			}
			if sparse.LatentWords() != len(m.masks) {
				t.Fatalf("seed %d op %d: after %s %d latent words, model %d", seed, op, kind, sparse.LatentWords(), len(m.masks))
			}
			conservation(t, sparse)
		}
	}
}

// TestReadUnwrittenDoesNotAllocate reads a never-written 16 MB DRAM end
// to end: missing pages read as zero without allocating one.
func TestReadUnwrittenDoesNotAllocate(t *testing.T) {
	d := New(T3DNodeConfig(16 << 20))
	buf := make([]byte, pageSize)
	allocs := testing.AllocsPerRun(2, func() {
		for a := int64(0); a < d.Size(); a += pageSize {
			d.Read(a, buf)
		}
	})
	if allocs != 0 {
		t.Errorf("reading unwritten memory: %v allocations per run, want 0", allocs)
	}
	if n := presentPages(d); n != 0 {
		t.Errorf("%d pages present after reads only", n)
	}
	if !allZero(buf) {
		t.Error("unwritten memory read back nonzero")
	}
}
