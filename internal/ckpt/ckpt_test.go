package ckpt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hostfs"
	"repro/internal/shell"
	"repro/internal/splitc"
)

func testSnap(jobID string, epoch int, pes int, memLen int64, fill byte) *Snapshot {
	s := &Snapshot{JobID: jobID, MachineSnapshot: splitc.MachineSnapshot{
		Epoch: epoch, Cycles: int64(epoch) * 1000,
		Heap: make([]int64, pes), Regs: make([]shell.RegSnapshot, pes),
	}}
	for pe := 0; pe < pes; pe++ {
		s.Heap[pe] = int64(65536 + pe)
		s.Regs[pe] = shell.RegSnapshot{FI: [2]uint64{uint64(pe), uint64(epoch)}, Swap: 7}
		m := make([]byte, memLen)
		for i := range m {
			m[i] = fill ^ byte(i) ^ byte(pe)
		}
		s.Mem = append(s.Mem, m)
	}
	return s
}

// TestEncodeGolden pins the T3DCKPT1 bytes: one fixed snapshot must
// encode to the exact file every T3DCKPT1 writer produces for these
// field values. Round-trip and fuzz tests accept any self-consistent
// encoding; this one notices a reordered header field or a changed
// register encoding, either of which would orphan every checkpoint the
// journal already vouches for.
func TestEncodeGolden(t *testing.T) {
	const (
		wantHeader = `T3DCKPT1 9af14943 {"v":1,"job_id":"j00000042","epoch":7,"cycles":123456789,"pes":2,"mem_len":64,` +
			`"heap":[65536,65600],"regs":[[4369,8738,13107],[3735928559,0,18446744073709551615]],"payload_crc":1626393666}`
		wantDigest = "eae244fb5c0bf6f4"
	)
	s := &Snapshot{JobID: "j00000042", MachineSnapshot: splitc.MachineSnapshot{
		Epoch: 7, Cycles: 123456789,
		Heap: []int64{65536, 65600},
		Regs: []shell.RegSnapshot{
			{FI: [2]uint64{0x1111, 0x2222}, Swap: 0x3333},
			{FI: [2]uint64{0xdeadbeef, 0}, Swap: 0xffffffffffffffff},
		},
	}}
	for pe := 0; pe < 2; pe++ {
		m := make([]byte, 64)
		for i := range m {
			m[i] = byte(i*7 + pe*31)
		}
		s.Mem = append(s.Mem, m)
	}
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if got, _, _ := strings.Cut(string(data), "\n"); got != wantHeader {
		t.Errorf("header line:\n got %s\nwant %s", got, wantHeader)
	}
	if got := Digest(data); got != wantDigest {
		t.Errorf("file digest %s, want %s", got, wantDigest)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSnap("j00000001", 3, 2, 256, 0xA5)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	got, err := Decode(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.JobID != s.JobID || got.Epoch != s.Epoch || got.Cycles != s.Cycles || len(got.Mem) != len(s.Mem) {
		t.Fatalf("snapshot mismatch: got %s epoch %d cycles %d, %d PEs; want %s epoch %d cycles %d, %d PEs",
			got.JobID, got.Epoch, got.Cycles, len(got.Mem), s.JobID, s.Epoch, s.Cycles, len(s.Mem))
	}
	for pe := range s.Mem {
		if string(got.Mem[pe]) != string(s.Mem[pe]) {
			t.Fatalf("pe%d image mismatch", pe)
		}
		if got.Heap[pe] != s.Heap[pe] || got.Regs[pe] != s.Regs[pe] {
			t.Fatalf("pe%d heap/regs mismatch", pe)
		}
	}
}

// Every single-byte corruption of a checkpoint file must be a detected
// refusal — header CRC, payload CRC, or size check — never a decode
// that silently returns different state.
func TestDecodeDetectsBitFlips(t *testing.T) {
	s := testSnap("j00000002", 1, 2, 64, 0x3C)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	stride := 1
	if testing.Short() {
		stride = 7
	}
	for i := 0; i < len(data); i += stride {
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x40
		if got, err := Decode(mut); err == nil {
			// The only tolerable "success" would be bit-identical state,
			// which a flipped byte cannot give under CRC32 here.
			t.Fatalf("flip at byte %d decoded cleanly: %s epoch %d", i, got.JobID, got.Epoch)
		}
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		if _, err := Decode(data[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes decoded cleanly", cut)
		}
	}
}

func TestStoreWriteLoadRetention(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(hostfs.OS(), dir, 2, t.Logf)
	var names, digests []string
	for epoch := 1; epoch <= 4; epoch++ {
		name, dig, err := st.Write(testSnap("j00000003", epoch, 2, 128, byte(epoch)))
		if err != nil {
			t.Fatalf("write epoch %d: %v", epoch, err)
		}
		names = append(names, name)
		digests = append(digests, dig)
	}
	// Retention 2: epochs 3 and 4 survive, 1 and 2 pruned.
	list := st.List("j00000003")
	if len(list) != 2 || list[0] != FileName("j00000003", 4) || list[1] != FileName("j00000003", 3) {
		t.Fatalf("retention: got %v", list)
	}
	snap, err := st.Load(names[3], digests[3])
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if snap.Epoch != 4 {
		t.Fatalf("loaded epoch %d, want 4", snap.Epoch)
	}
	// A wrong journal digest must refuse before decode.
	if _, err := st.Load(names[3], "0123456789abcdef"); err == nil {
		t.Fatal("load with wrong digest succeeded")
	}
	stats := st.Stats()
	if stats.Writes != 4 || stats.Pruned != 2 {
		t.Fatalf("stats: %+v", stats)
	}
}

func TestStoreQuarantineAndSweep(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(hostfs.OS(), dir, 3, t.Logf)
	name, _, err := st.Write(testSnap("j00000004", 1, 1, 64, 0x11))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	st.Quarantine(name)
	if got := st.List("j00000004"); len(got) != 0 {
		t.Fatalf("quarantined file still listed: %v", got)
	}
	if _, err := os.Stat(filepath.Join(dir, name+".bad")); err != nil {
		t.Fatalf("no .bad file after quarantine: %v", err)
	}
	// A stranded tmp from a crashed publish.
	if err := os.WriteFile(filepath.Join(dir, "j00000004.e000009.ckpt.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.SweepJob("j00000004")
	left, _ := os.ReadDir(dir)
	for _, e := range left {
		if isCkptFile(e.Name()) {
			t.Fatalf("sweep left %s behind", e.Name())
		}
	}
}

func TestStoreSweepExceptKeepsOnlyReferenced(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(hostfs.OS(), dir, 3, t.Logf)
	keepName, _, err := st.Write(testSnap("j00000005", 2, 1, 64, 0x22))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	dropName, _, err := st.Write(testSnap("j00000006", 1, 1, 64, 0x33))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "j00000007.e000001.ckpt.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.SweepExcept(map[string]bool{keepName: true})
	if got := st.List("j00000005"); len(got) != 1 || got[0] != keepName {
		t.Fatalf("kept file missing: %v", got)
	}
	if got := st.List("j00000006"); len(got) != 0 {
		t.Fatalf("unreferenced %s survived sweep", dropName)
	}
	left, _ := os.ReadDir(dir)
	for _, e := range left {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("sweep left tmp %s behind", e.Name())
		}
	}
}

func TestStoreWriteFailureLeavesNothingPublished(t *testing.T) {
	dir := t.TempDir()
	ffs := hostfs.NewFault(hostfs.OS(), hostfs.FaultConfig{Seed: 1})
	st := NewStore(ffs, dir, 3, t.Logf)
	ffs.SetBroken(hostfs.BrokenEIO)
	if _, _, err := st.Write(testSnap("j00000008", 1, 1, 64, 0x44)); err == nil {
		t.Fatal("write on a broken disk succeeded")
	}
	ffs.Heal()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".ckpt") {
			t.Fatalf("failed write published %s", e.Name())
		}
	}
	if st.Stats().WriteFailures != 1 {
		t.Fatalf("stats: %+v", st.Stats())
	}
}
