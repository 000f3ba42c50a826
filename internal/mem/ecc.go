// SECDED ECC, poison, and scrubbing for the DRAM model.
//
// The T3D's DRAM carries check bits per 64-bit word: single-error-
// correct, double-error-detect. This file models that contract without
// storing syndromes — a fault table keeps the XOR mask of flipped bits
// per word, so the data array always holds the *corrupted* bytes (what
// a raw, ECC-off read returns) and the mask is what correction or
// detection consults:
//
//   - popcount(mask) == 1: correctable. Any read through the ECC pipe
//     repairs the word in place (data ^= mask, entry dropped) and the
//     reader is charged Config.ECCPenalty cycles per corrected word —
//     the correction pipe stall.
//   - popcount(mask) >= 2: uncorrectable. Checked reads return the
//     word's address in the poison set instead of trusting the data;
//     consumers surface it as *PoisonError (unwrapping to ErrPoisoned)
//     on the requesting processor.
//   - mask == ^0: propagated poison. A bulk transfer that moved an
//     uncorrectable word marks the destination word poisoned too, so
//     corruption can never launder itself through a copy.
//
// Writes clear the mask bits of the bytes they overwrite — fresh data
// carries fresh check bits — which is also why the fault table needs no
// special rollback hook: a checkpoint Restore overwrites all of memory
// and therefore clears every entry.
//
// With ECC disabled (the raw-DRAM baseline), nothing corrects, nothing
// poisons, and every read overlapping a faulted word bumps SilentReads:
// the counter whose zero value is the "no silent escapes" proof.
package mem

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
)

// ErrPoisoned is the sentinel for an uncorrectable memory error: a read
// observed a word whose SECDED syndrome reports a multi-bit fault, so
// there is no trustworthy data to return. errors.Is(err, ErrPoisoned)
// distinguishes it from net.ErrPartitioned (the data is unreachable):
// poisoned data arrived and is provably wrong.
var ErrPoisoned = errors.New("mem: uncorrectable memory error")

// PoisonError reports which word poisoned which processor's read. It is
// delivered by panicking on the requesting proc (the same convention as
// net.PartitionError), surfacing as *sim.ProcFailure from RunErr.
// Addr is the word's offset in its owner's memory, or -1 when the
// faulting word is no longer identifiable (BLT completion).
type PoisonError struct {
	PE   int
	Addr int64
}

func (e *PoisonError) Error() string {
	if e.Addr < 0 {
		return fmt.Sprintf("pe%d: %v", e.PE, ErrPoisoned)
	}
	return fmt.Sprintf("pe%d: %v at word %#x", e.PE, ErrPoisoned, e.Addr)
}

func (e *PoisonError) Unwrap() error { return ErrPoisoned }

// wordFault is the live fault state of one 64-bit word.
type wordFault struct {
	mask         uint64 // XOR of flipped bits; ^0 for propagated poison
	multiCounted bool   // already counted toward MultiWords/Propagated
	detected     bool   // a checked read already reported this poison
}

func (f *wordFault) uncorrectable() bool { return bits.OnesCount64(f.mask) >= 2 }

// IntegrityStats is the lifecycle accounting of memory faults. Two
// conservation laws hold at all times and are asserted by the chaos
// soak:
//
//	FaultWords + Propagated == Corrected + Scrubbed + Overwritten + LatentWords()
//	MultiWords + Propagated == Poisoned + MultiOverwritten + LatentUncorrectable() + detected-but-live words
//
// (the second collapses to equality once the run's final checkpoint has
// cleared the table).
type IntegrityStats struct {
	// Fault-table entries created: FaultWords by injected flips,
	// Propagated by poison copied through a bulk transfer. MultiWords
	// counts the entries that ever became uncorrectable.
	FaultWords, MultiWords, Propagated int64

	// Entries retired: Corrected by an ECC read repair, Scrubbed by the
	// background sweeper, Overwritten by a store/restore replacing the
	// last faulted byte. MultiOverwritten is the subset of Overwritten
	// that was uncorrectable and never detected — "provably overwritten
	// before read".
	Corrected, Scrubbed, Overwritten, MultiOverwritten int64

	// Poisoned counts words whose uncorrectable state was detected (once
	// per word); PoisonReads counts every checked read that observed
	// poison. SilentReads counts reads that consumed a faulted word with
	// no way to signal it: any read with ECC off, or a raw host-window
	// read overlapping an uncorrectable word. Zero silent reads means
	// zero silent escapes.
	Poisoned, PoisonReads, SilentReads int64
}

// Add returns the element-wise sum — for aggregating per-node stats.
func (s IntegrityStats) Add(o IntegrityStats) IntegrityStats {
	s.FaultWords += o.FaultWords
	s.MultiWords += o.MultiWords
	s.Propagated += o.Propagated
	s.Corrected += o.Corrected
	s.Scrubbed += o.Scrubbed
	s.Overwritten += o.Overwritten
	s.MultiOverwritten += o.MultiOverwritten
	s.Poisoned += o.Poisoned
	s.PoisonReads += o.PoisonReads
	s.SilentReads += o.SilentReads
	return s
}

// SetECC arms or disarms the SECDED model. Off (the default, and the
// configuration every pre-integrity experiment runs in) makes all reads
// raw: injected faults corrupt silently, exactly today's seed behavior.
func (d *DRAM) SetECC(on bool) { d.ecc = on }

// ECC reports whether the SECDED model is armed.
func (d *DRAM) ECC() bool { return d.ecc }

// Integrity returns a copy of the lifecycle counters.
func (d *DRAM) Integrity() IntegrityStats { return d.integ }

// LatentWords returns the number of words currently carrying any fault.
func (d *DRAM) LatentWords() int { return len(d.faults) }

// LatentUncorrectable returns the number of words carrying an
// uncorrectable fault that no checked read has detected yet — the words
// that could still escape silently.
func (d *DRAM) LatentUncorrectable() int {
	n := 0
	for _, f := range d.faults {
		if f.uncorrectable() && !f.detected {
			n++
		}
	}
	return n
}

// InjectFlip XORs mask into the 64-bit word at addr (word-aligned down)
// — the fault-injection primitive. The data bytes really change; the
// fault table remembers which bits, which is what SECDED check bits
// know in hardware. Two flips of the same bit cancel (the entry clears,
// counted as Overwritten: the word again matches its check bits).
func (d *DRAM) InjectFlip(addr int64, mask uint64) {
	addr &^= 7
	d.checkRange(addr, 8)
	if mask == 0 {
		return
	}
	binary.LittleEndian.PutUint64(d.data[addr:], binary.LittleEndian.Uint64(d.data[addr:])^mask)
	f := d.faults[addr]
	if f == nil {
		f = &wordFault{}
		if d.faults == nil {
			d.faults = make(map[int64]*wordFault)
		}
		d.faults[addr] = f
		d.integ.FaultWords++
	}
	f.mask ^= mask
	if f.mask == 0 {
		d.clearFault(addr, f)
		return
	}
	if !f.multiCounted && f.uncorrectable() {
		f.multiCounted = true
		d.integ.MultiWords++
	}
}

// PropagatePoison marks the word at addr (word-aligned down) as carrying
// propagated poison: a bulk transfer deposited data that originated in
// an uncorrectable word, so this copy is equally untrustworthy. The
// data bytes are left as the transfer wrote them.
func (d *DRAM) PropagatePoison(addr int64) {
	addr &^= 7
	d.checkRange(addr, 8)
	f := d.faults[addr]
	if f == nil {
		f = &wordFault{}
		if d.faults == nil {
			d.faults = make(map[int64]*wordFault)
		}
		d.faults[addr] = f
		d.integ.Propagated++
		f.multiCounted = true // accounted under Propagated, not MultiWords
	} else if !f.multiCounted {
		f.multiCounted = true
		d.integ.MultiWords++
	}
	f.mask = ^uint64(0)
}

// clearFault retires an entry whose word again matches its check bits
// (overwritten by a store, a restore, or a cancelling double flip).
func (d *DRAM) clearFault(addr int64, f *wordFault) {
	delete(d.faults, addr)
	d.integ.Overwritten++
	if f.multiCounted && !f.detected {
		d.integ.MultiOverwritten++
	}
}

// ReadChecked is Read through the ECC pipe: single-bit faults in the
// range are corrected in place (count returned — the caller owes
// ECCPenalty cycles per correction), uncorrectable words are returned
// as poison addresses and their (garbage) bytes still copied, so the
// caller must check poisoned before trusting p.
func (d *DRAM) ReadChecked(addr int64, p []byte) (corrected int, poisoned []int64) {
	d.checkRange(addr, len(p))
	if len(d.faults) > 0 {
		corrected, poisoned = d.sweepRange(addr, int64(len(p)), true)
	}
	copy(p, d.data[addr:])
	return corrected, poisoned
}

// Read64Checked is ReadChecked for one 64-bit word.
func (d *DRAM) Read64Checked(addr int64) (v uint64, corrected int, poisoned bool) {
	d.checkRange(addr, 8)
	if len(d.faults) > 0 {
		var pw []int64
		corrected, pw = d.sweepRange(addr, 8, true)
		poisoned = len(pw) > 0
	}
	return binary.LittleEndian.Uint64(d.data[addr:]), corrected, poisoned
}

// sweepRange applies ECC to every word overlapping [addr, addr+n).
// checked reads (signal=true) collect poison; raw host-window reads
// (signal=false) cannot deliver poison, so observing an uncorrectable
// word there is a silent read.
func (d *DRAM) sweepRange(addr, n int64, signal bool) (corrected int, poisoned []int64) {
	end := addr + n
	for w := addr &^ 7; w < end; w += 8 {
		f := d.faults[w]
		if f == nil {
			continue
		}
		if !d.ecc {
			d.integ.SilentReads++
			continue
		}
		if f.uncorrectable() {
			if signal {
				if !f.detected {
					f.detected = true
					d.integ.Poisoned++
				}
				d.integ.PoisonReads++
				poisoned = append(poisoned, w)
			} else {
				d.integ.SilentReads++
			}
			continue
		}
		binary.LittleEndian.PutUint64(d.data[w:], binary.LittleEndian.Uint64(d.data[w:])^f.mask)
		delete(d.faults, w)
		d.integ.Corrected++
		corrected++
	}
	return corrected, poisoned
}

// clearOnWrite retires the mask bits of every byte in [addr, addr+n):
// freshly written bytes carry fresh check bits. Called by all write
// paths before the bytes land.
func (d *DRAM) clearOnWrite(addr, n int64) {
	if len(d.faults) == 0 {
		return
	}
	end := addr + n
	for w := addr &^ 7; w < end; w += 8 {
		f := d.faults[w]
		if f == nil {
			continue
		}
		lo, hi := w, w+8
		if addr > lo {
			lo = addr
		}
		if end < hi {
			hi = end
		}
		var byteBits uint64
		for b := lo; b < hi; b++ {
			byteBits |= 0xFF << (8 * uint(b-w))
		}
		f.mask &^= byteBits
		if f.mask == 0 {
			d.clearFault(w, f)
		}
	}
}

// clearAllFaults retires every entry — a Restore or Zero overwrote the
// whole array.
func (d *DRAM) clearAllFaults() {
	for a, f := range d.faults {
		d.clearFault(a, f)
	}
}

// ScrubRange corrects every single-bit fault in [addr, addr+n) and
// returns how many it repaired (counted under Scrubbed, not Corrected).
// Uncorrectable words are left for a checked read to detect — SECDED
// cannot repair them, and silently dropping the entry would *create* a
// silent-escape path. A scrubber with ECC off has no check bits to
// consult and repairs nothing.
func (d *DRAM) ScrubRange(addr, n int64) int {
	if !d.ecc || len(d.faults) == 0 {
		return 0
	}
	repaired := 0
	end := addr + n
	if end > d.cfg.Size {
		end = d.cfg.Size
	}
	for w, f := range d.faults {
		if w < addr || w >= end || f.uncorrectable() {
			continue
		}
		binary.LittleEndian.PutUint64(d.data[w:], binary.LittleEndian.Uint64(d.data[w:])^f.mask)
		delete(d.faults, w)
		d.integ.Scrubbed++
		repaired++
	}
	return repaired
}

// ScrubAll sweeps the whole memory at once — the checkpoint barrier's
// pre-image pass — returning how many singles were repaired and how
// many uncorrectable words remain (in any detection state). A nonzero
// remainder means the image would launder corruption and the checkpoint
// must abort.
func (d *DRAM) ScrubAll() (repaired, uncorrectable int) {
	repaired = d.ScrubRange(0, d.cfg.Size)
	if d.ecc {
		for _, f := range d.faults {
			if f.uncorrectable() {
				uncorrectable++
			}
		}
	}
	return repaired, uncorrectable
}
