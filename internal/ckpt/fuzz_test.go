package ckpt

import (
	"bytes"
	"slices"
	"testing"
)

// FuzzCheckpointHeader throws arbitrary bytes at the checkpoint reader
// — the parser that stands between a possibly-torn, possibly-corrupted
// file and a resume that must be bit-exact. Invariants: the parser
// never panics; a successful decode re-encodes to the identical bytes
// and the identical digest (so a checkpoint that validates once
// validates forever); and decode output is internally consistent with
// its own header.
func FuzzCheckpointHeader(f *testing.F) {
	// The seeds hold no page: a 4 KiB page in a seed makes the fuzzer
	// spend its run minimizing (about 5,000 executions in 10 s against
	// 330,000 without). Valid files with pages are the round-trip and
	// bit-flip tests' inputs.
	seed := testSnap("j00000042", 5, 2, 0x5A)
	seed.Mem[0], seed.Mem[1] = testImage(0, 0x5A), testImage(1, 0x5A)
	good, err := Encode(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(good[:1])
	flip := append([]byte(nil), good...)
	flip[12] ^= 0x10
	f.Add(flip)
	f.Add([]byte(`T3DCKPT2 deadbeef {"v":2,"pes":1,"mem_len":8192,"heap":[0],"regs":[[0,0,0]],"pages":[[1,0]],"payload_crc":0}` + "\n"))
	f.Add(reheader(f, good, func(h *header) { h.Pages[0] = []int{1} }))
	f.Add(v1File())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(data)
		if err != nil {
			return
		}
		if len(s.Mem) < 1 || len(s.Heap) != len(s.Mem) || len(s.Regs) != len(s.Mem) {
			t.Fatalf("decoded inconsistent snapshot: %d/%d/%d mem/heap/regs",
				len(s.Mem), len(s.Heap), len(s.Regs))
		}
		for pe := range s.Mem {
			if m := &s.Mem[pe]; m.Size != s.Mem[0].Size || m.Validate() != nil {
				t.Fatalf("pe%d image of %d bytes (pe0's %d): %v", pe, m.Size, s.Mem[0].Size, m.Validate())
			}
		}
		re, err := Encode(s)
		if err != nil {
			t.Fatalf("re-encode of a valid decode failed: %v", err)
		}
		// The re-encoding is canonical (our JSON field order), so it may
		// differ byte-for-byte from a hand-built valid input — but it must
		// decode back to the same state, and canonical encodings must be a
		// fixed point (a checkpoint that validates once validates forever).
		s2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-decode of a re-encode failed: %v", err)
		}
		if s2.JobID != s.JobID || s2.Epoch != s.Epoch || s2.Cycles != s.Cycles || len(s2.Mem) != len(s.Mem) {
			t.Fatalf("header drift across round trip: %s/%d/%d/%d PEs vs %s/%d/%d/%d PEs",
				s2.JobID, s2.Epoch, s2.Cycles, len(s2.Mem), s.JobID, s.Epoch, s.Cycles, len(s.Mem))
		}
		for pe := range s.Mem {
			a, b := &s2.Mem[pe], &s.Mem[pe]
			if a.Size != b.Size || !slices.Equal(a.Pages, b.Pages) || !bytes.Equal(a.Data, b.Data) ||
				s2.Heap[pe] != s.Heap[pe] || s2.Regs[pe] != s.Regs[pe] {
				t.Fatalf("pe%d state drift across round trip", pe)
			}
		}
		re2, err := Encode(s2)
		if err != nil || !bytes.Equal(re2, re) {
			t.Fatalf("canonical encoding is not a fixed point (err %v)", err)
		}
	})
}
