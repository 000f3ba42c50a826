package mem

import (
	"bytes"
	"errors"
	"slices"
	"testing"
)

// conservation asserts the fault-lifecycle invariant: every fault-table
// entry ever created is corrected, scrubbed, overwritten, or still
// latent — nothing vanishes unaccounted.
func conservation(t *testing.T, d *DRAM) {
	t.Helper()
	s := d.Integrity()
	created := s.FaultWords + s.Propagated
	retired := s.Corrected + s.Scrubbed + s.Overwritten + int64(d.LatentWords())
	if created != retired {
		t.Errorf("conservation broken: %d created != %d accounted (%+v, latent %d)",
			created, retired, s, d.LatentWords())
	}
}

func TestECCCorrectsSingleBitFault(t *testing.T) {
	d := testDRAM()
	d.SetECC(true)
	d.Write64(64, 0xABCD)
	d.InjectFlip(64, 1<<17)
	if got := d.Integrity().FaultWords; got != 1 {
		t.Fatalf("FaultWords = %d after one flip", got)
	}
	v, corrected, poisoned := d.Read64Checked(64)
	if poisoned {
		t.Fatal("single-bit fault read as poison")
	}
	if corrected != 1 {
		t.Fatalf("corrected %d words, want 1", corrected)
	}
	if v != 0xABCD {
		t.Fatalf("corrected read = %#x, want 0xABCD", v)
	}
	if d.LatentWords() != 0 {
		t.Error("corrected fault still latent")
	}
	// Correction repairs in place: the next read is clean and free.
	if _, c, _ := d.Read64Checked(64); c != 0 {
		t.Errorf("second read corrected %d words, want 0", c)
	}
	conservation(t, d)
}

func TestECCPoisonsDoubleBitFault(t *testing.T) {
	d := testDRAM()
	d.SetECC(true)
	d.Write64(128, 7)
	d.InjectFlip(128, 1|1<<63)
	if got := d.Integrity().MultiWords; got != 1 {
		t.Fatalf("MultiWords = %d after a double flip", got)
	}
	_, _, poisoned := d.Read64Checked(128)
	if !poisoned {
		t.Fatal("double-bit fault not detected")
	}
	// Detection is once per word; observation is once per read.
	d.Read64Checked(128)
	s := d.Integrity()
	if s.Poisoned != 1 || s.PoisonReads != 2 {
		t.Errorf("Poisoned=%d PoisonReads=%d, want 1, 2", s.Poisoned, s.PoisonReads)
	}
	if s.SilentReads != 0 {
		t.Errorf("checked reads counted %d silent reads", s.SilentReads)
	}
	// ReadChecked reports the poisoned addresses over a range.
	buf := make([]byte, 64)
	if _, poisonedAddrs := d.ReadChecked(96, buf); len(poisonedAddrs) != 1 || poisonedAddrs[0] != 128 {
		t.Errorf("range read poisoned addrs = %v, want [128]", poisonedAddrs)
	}
	conservation(t, d)
}

func TestWriteClearsFaultedBytes(t *testing.T) {
	d := testDRAM()
	d.SetECC(true)
	// A full-word overwrite retires the entry: fresh data, fresh check bits.
	d.InjectFlip(0, 1|1<<63)
	d.Write64(0, 42)
	if d.LatentWords() != 0 {
		t.Fatal("overwritten fault still latent")
	}
	s := d.Integrity()
	if s.Overwritten != 1 || s.MultiOverwritten != 1 {
		t.Errorf("Overwritten=%d MultiOverwritten=%d, want 1, 1", s.Overwritten, s.MultiOverwritten)
	}
	if v, _, poisoned := d.Read64Checked(0); poisoned || v != 42 {
		t.Errorf("read after overwrite = %#x poisoned=%v", v, poisoned)
	}
	// A partial write clears only its own bytes: a fault in byte 7
	// survives a 4-byte store to bytes 0..3 and still corrects.
	d.Write64(8, 0x1111111111111111)
	d.InjectFlip(8, 1<<56) // byte 7
	d.Write32(8, 0x2222)   // bytes 0..3
	if d.LatentWords() != 1 {
		t.Fatal("partial write cleared an untouched byte's fault")
	}
	v, corrected, _ := d.Read64Checked(8)
	if corrected != 1 || v != 0x1111111100002222 {
		t.Errorf("read = %#x corrected=%d, want 0x1111111100002222, 1", v, corrected)
	}
	// Two flips of the same bit cancel: the word matches its check bits
	// again and the entry retires without a read.
	d.InjectFlip(16, 1<<5)
	d.InjectFlip(16, 1<<5)
	if d.LatentWords() != 0 {
		t.Error("cancelling flips left a latent entry")
	}
	conservation(t, d)
}

func TestPropagatedPoisonCannotLaunder(t *testing.T) {
	d := testDRAM()
	d.SetECC(true)
	d.PropagatePoison(256)
	if s := d.Integrity(); s.Propagated != 1 || s.MultiWords != 0 {
		t.Errorf("Propagated=%d MultiWords=%d, want 1, 0", s.Propagated, s.MultiWords)
	}
	if _, _, poisoned := d.Read64Checked(256); !poisoned {
		t.Error("propagated poison not detected")
	}
	// Scrubbing must NOT repair it — there is no correct value to restore.
	if n := d.ScrubRange(0, d.Size()); n != 0 {
		t.Errorf("scrub repaired %d propagated-poison words", n)
	}
	// Only an overwrite clears it.
	d.Write64(256, 0)
	if d.LatentWords() != 0 {
		t.Error("overwritten poison still latent")
	}
	conservation(t, d)
}

func TestScrubRepairsSinglesOnly(t *testing.T) {
	d := testDRAM()
	d.SetECC(true)
	d.InjectFlip(0, 1<<3)     // single
	d.InjectFlip(8, 1<<4)     // single
	d.InjectFlip(16, 1|1<<62) // double
	if repaired := d.ScrubRange(0, 24); repaired != 2 {
		t.Fatalf("scrub repaired %d, want 2", repaired)
	}
	repaired, uncorrectable := d.ScrubAll()
	if repaired != 0 || uncorrectable != 1 {
		t.Errorf("ScrubAll = (%d, %d), want (0, 1)", repaired, uncorrectable)
	}
	if s := d.Integrity(); s.Scrubbed != 2 {
		t.Errorf("Scrubbed = %d, want 2", s.Scrubbed)
	}
	conservation(t, d)
}

func TestECCOffReadsAreSilent(t *testing.T) {
	d := testDRAM()
	d.Write64(0, 0xFF)
	d.InjectFlip(0, 1<<1)
	if d.ECC() {
		t.Fatal("ECC armed by default")
	}
	// The raw bits come back corrupted, and the only trace is the counter.
	if v := d.Read64(0); v != 0xFF^2 {
		t.Errorf("ECC-off read = %#x, want %#x", v, 0xFF^2)
	}
	if v, corrected, poisoned := d.Read64Checked(0); corrected != 0 || poisoned || v != 0xFF^2 {
		t.Errorf("ECC-off checked read = (%#x, %d, %v), want corrupted raw data", v, corrected, poisoned)
	}
	if s := d.Integrity(); s.SilentReads != 2 || s.Corrected != 0 {
		t.Errorf("SilentReads=%d Corrected=%d, want 2, 0", s.SilentReads, s.Corrected)
	}
	// A scrubber without check bits repairs nothing.
	if n := d.ScrubRange(0, d.Size()); n != 0 {
		t.Errorf("ECC-off scrub repaired %d words", n)
	}
}

func TestRawHostReadOfPoisonIsSilent(t *testing.T) {
	d := testDRAM()
	d.SetECC(true)
	d.InjectFlip(0, 1<<2)    // single: the raw window still repairs it
	d.InjectFlip(8, 1|1<<61) // double: the raw window cannot signal it
	if v := d.Read64(0); v != 0 {
		t.Errorf("raw read did not repair the single: %#x", v)
	}
	d.Read64(8)
	s := d.Integrity()
	if s.Corrected != 1 || s.SilentReads != 1 || s.PoisonReads != 0 {
		t.Errorf("Corrected=%d SilentReads=%d PoisonReads=%d, want 1, 1, 0", s.Corrected, s.SilentReads, s.PoisonReads)
	}
	conservation(t, d)
}

func TestRestoreAndZeroClearFaults(t *testing.T) {
	d := testDRAM()
	d.SetECC(true)
	d.Write64(64, 5)
	var img, again Image
	d.Snapshot(&img)
	d.Write64(0, 99)
	d.Write64(2*PageSize, 7)
	d.InjectFlip(0, 1|1<<60)
	d.Restore(&img)
	if d.LatentWords() != 0 {
		t.Error("Restore left latent faults")
	}
	if v, _, poisoned := d.Read64Checked(0); poisoned || v != 0 {
		t.Errorf("restored word = %#x poisoned=%v", v, poisoned)
	}
	d.Snapshot(&again)
	if !slices.Equal(again.Pages, img.Pages) || !bytes.Equal(again.Data, img.Data) {
		t.Errorf("snapshot -> restore -> snapshot: pages %v then %v, bytes equal %v",
			img.Pages, again.Pages, bytes.Equal(again.Data, img.Data))
	}
	d.InjectFlip(8, 1|1<<59)
	d.Zero()
	if d.LatentWords() != 0 {
		t.Error("Zero left latent faults")
	}
	conservation(t, d)
}

func TestPoisonErrorUnwraps(t *testing.T) {
	err := error(&PoisonError{PE: 3, Addr: 0x40})
	if !errors.Is(err, ErrPoisoned) {
		t.Error("PoisonError does not unwrap to ErrPoisoned")
	}
	if err.Error() == "" || (&PoisonError{PE: 1, Addr: -1}).Error() == "" {
		t.Error("empty error strings")
	}
}
