package serve

import (
	"bytes"
	"testing"
)

// FuzzJournalRecord feeds arbitrary bytes to the journal segment
// parser — the code that stands between a corrupted host disk and
// replaying the wrong jobs. Invariants, whatever the input:
//
//  1. no panic, and the reported good-prefix offset stays in bounds;
//  2. every record the parser accepts re-encodes (it is a real record,
//     not a misparse of garbage);
//  3. parsing is prefix-stable: re-parsing the good prefix alone yields
//     the same records, the same offset, and no error — the exact
//     property torn-tail truncation at open relies on;
//  4. an unchecksummed line is never accepted: a segment whose first
//     byte is '{' yields no records.
func FuzzJournalRecord(f *testing.F) {
	spec := ckptSpec(1)
	res := JobResult{App: AppEM3D, Digest: "0123456789abcdef", Cycles: 12345, Validated: true}
	var seg []byte
	for _, r := range []Record{
		{Type: recSubmitted, ID: "j00000001", Key: "00000000deadbeef", Tenant: "acme", Spec: &spec},
		{Type: recRunning, ID: "j00000001"},
		{Type: recCheckpointed, ID: "j00000001", Tenant: "acme",
			Epoch: 3, File: "j00000001.e000003.ckpt", Digest: "fedcba9876543210", Cycles: 42000},
		{Type: recDone, ID: "j00000001", Key: "00000000deadbeef", Spec: &spec, Result: &res},
		{Type: recAborted, ID: "j00000002"},
		{Type: recProbe},
	} {
		line, err := encodeLine(r)
		if err != nil {
			f.Fatalf("seed encode: %v", err)
		}
		seg = append(seg, line...)
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-1]) // torn newline
	f.Add(seg[:len(seg)/2]) // torn mid-record
	// Bare JSON lines carry no checksum, so they must be refused.
	f.Add([]byte("{}\n"))
	f.Add([]byte("{\"type\":\"done\",\"id\":\"j1\"}\n"))
	flip := append([]byte(nil), seg...)
	flip[len(flip)/3] ^= 0x40
	f.Add(flip)
	f.Add([]byte{})
	f.Add([]byte("00000000 \n12345678 {\"type\":\"probe\"}\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, off, _ := parseSegment(data)
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("good-prefix offset %d out of bounds [0,%d]", off, len(data))
		}
		if len(data) > 0 && data[0] == '{' && len(recs) > 0 {
			t.Fatalf("accepted %d records from an unchecksummed line", len(recs))
		}
		for i, r := range recs {
			if _, err := encodeLine(r); err != nil {
				t.Fatalf("accepted record %d does not re-encode: %v", i, err)
			}
		}
		recs2, off2, err2 := parseSegment(data[:off])
		if err2 != nil {
			t.Fatalf("good prefix re-parse errored: %v", err2)
		}
		if off2 != off || len(recs2) != len(recs) {
			t.Fatalf("prefix re-parse diverged: %d records at %d, first pass %d at %d",
				len(recs2), off2, len(recs), off)
		}
		for i := range recs {
			a, _ := encodeLine(recs[i])
			b, _ := encodeLine(recs2[i])
			if !bytes.Equal(a, b) {
				t.Fatalf("record %d changed between parses", i)
			}
		}
	})
}
