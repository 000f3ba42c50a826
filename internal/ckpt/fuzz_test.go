package ckpt

import (
	"bytes"
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
	seed := testSnap("j00000042", 5, 2, 96, 0x5A)
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
	f.Add([]byte("T3DCKPT1 deadbeef {}\n"))
	f.Add([]byte("T3DCKPT9 00000000 {}\npayload"))
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
		for pe, m := range s.Mem {
			if len(m) != len(s.Mem[0]) {
				t.Fatalf("pe%d image %d bytes, pe0's is %d", pe, len(m), len(s.Mem[0]))
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
			if !bytes.Equal(s2.Mem[pe], s.Mem[pe]) || s2.Heap[pe] != s.Heap[pe] || s2.Regs[pe] != s.Regs[pe] {
				t.Fatalf("pe%d state drift across round trip", pe)
			}
		}
		re2, err := Encode(s2)
		if err != nil || !bytes.Equal(re2, re) {
			t.Fatalf("canonical encoding is not a fixed point (err %v)", err)
		}
	})
}
