package ckpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/hostfs"
	"repro/internal/mem"
	"repro/internal/shell"
	"repro/internal/splitc"
)

// testMemLen is the DRAM size of the test snapshots: 8 pages.
const testMemLen = 8 * mem.PageSize

// testImage builds a testMemLen-byte image holding pages, each filled
// with a pattern of fill, pe and the page number.
func testImage(pe int, fill byte, pages ...int) mem.Image {
	img := mem.Image{Size: testMemLen, Pages: pages}
	for _, pg := range pages {
		for i := 0; i < mem.PageSize; i++ {
			img.Data = append(img.Data, fill^byte(i)^byte(pe)^byte(pg*37))
		}
	}
	return img
}

// testSnap builds a snapshot whose PE pe holds pages 1 and 3+pe.
func testSnap(jobID string, epoch int, pes int, fill byte) *Snapshot {
	s := &Snapshot{JobID: jobID, MachineSnapshot: splitc.MachineSnapshot{
		Epoch: epoch, Cycles: int64(epoch) * 1000,
		Heap: make([]int64, pes), Regs: make([]shell.RegSnapshot, pes),
	}}
	for pe := 0; pe < pes; pe++ {
		s.Heap[pe] = int64(65536 + pe)
		s.Regs[pe] = shell.RegSnapshot{FI: [2]uint64{uint64(pe), uint64(epoch)}, Swap: 7}
		s.Mem = append(s.Mem, testImage(pe, fill, 1, 3+pe))
	}
	return s
}

// reheader rewrites an encoded file's header through edit and signs the
// header and payload CRCs again, so that only the check under test can
// refuse the result.
func reheader(t testing.TB, data []byte, edit func(*header)) []byte {
	t.Helper()
	nl := bytes.IndexByte(data, '\n')
	tok := bytes.SplitN(data[:nl], []byte(" "), 3)
	var h header
	if err := json.Unmarshal(tok[2], &h); err != nil {
		t.Fatal(err)
	}
	edit(&h)
	h.PayloadCRC = crc32.ChecksumIEEE(data[nl+1:])
	hdr, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	out := fmt.Appendf(nil, "%s %08x ", tok[0], crc32.ChecksumIEEE(hdr))
	out = append(append(out, hdr...), '\n')
	return append(out, data[nl+1:]...)
}

// v1File is the T3DCKPT1 file TestEncodeGolden pinned before format
// v2: two dense 64-byte images after the header line. Its whole-file
// digest is v1Digest.
func v1File() []byte {
	const hdr = `T3DCKPT1 9af14943 {"v":1,"job_id":"j00000042","epoch":7,"cycles":123456789,"pes":2,"mem_len":64,` +
		`"heap":[65536,65600],"regs":[[4369,8738,13107],[3735928559,0,18446744073709551615]],"payload_crc":1626393666}`
	data := []byte(hdr + "\n")
	for pe := 0; pe < 2; pe++ {
		for i := 0; i < 64; i++ {
			data = append(data, byte(i*7+pe*31))
		}
	}
	return data
}

const v1Digest = "eae244fb5c0bf6f4"

// TestEncodeGolden pins the T3DCKPT2 bytes: one fixed snapshot must
// encode to the exact file every T3DCKPT2 writer produces for these
// field values. Round-trip and fuzz tests accept any self-consistent
// encoding; this one notices a reordered header field, a changed page
// table or a changed register encoding, any of which would orphan every
// checkpoint the journal already vouches for.
func TestEncodeGolden(t *testing.T) {
	const (
		wantHeader = `T3DCKPT2 e9d7861c {"v":2,"job_id":"j00000042","epoch":7,"cycles":123456789,"pes":2,"mem_len":16384,` +
			`"heap":[65536,65600],"regs":[[4369,8738,13107],[3735928559,0,18446744073709551615]],"pages":[[0,2],[]],"payload_crc":3244410193}`
		wantDigest = "4cc8ad0e416748af"
	)
	s := &Snapshot{JobID: "j00000042", MachineSnapshot: splitc.MachineSnapshot{
		Epoch: 7, Cycles: 123456789,
		Heap: []int64{65536, 65600},
		Regs: []shell.RegSnapshot{
			{FI: [2]uint64{0x1111, 0x2222}, Swap: 0x3333},
			{FI: [2]uint64{0xdeadbeef, 0}, Swap: 0xffffffffffffffff},
		},
		Mem: []mem.Image{{Size: 4 * mem.PageSize, Pages: []int{0, 2}}, {Size: 4 * mem.PageSize}},
	}}
	for pg := 0; pg < 2; pg++ {
		for i := 0; i < mem.PageSize; i++ {
			s.Mem[0].Data = append(s.Mem[0].Data, byte(i*7+pg*31))
		}
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

// TestEncodeDecodeRoundTrip round-trips a PE with no page written, a
// sparse one and a fully written one: each decodes to the same pages
// and bytes, and the file is the header plus the pages present.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	s := testSnap("j00000001", 3, 3, 0xA5)
	s.Mem[0] = testImage(0, 0xA5)
	s.Mem[2] = testImage(2, 0xA5, 0, 1, 2, 3, 4, 5, 6, 7)
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if hdr := bytes.IndexByte(data, '\n') + 1; len(data) != hdr+(0+2+8)*mem.PageSize {
		t.Fatalf("file is %d bytes: a %d-byte header and %d of pages, want %d pages",
			len(data), hdr, len(data)-hdr, 0+2+8)
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
		g, w := &got.Mem[pe], &s.Mem[pe]
		if g.Size != w.Size || !slices.Equal(g.Pages, w.Pages) || !bytes.Equal(g.Data, w.Data) {
			t.Fatalf("pe%d image mismatch: %d bytes, pages %v; want %d bytes, pages %v", pe, g.Size, g.Pages, w.Size, w.Pages)
		}
		if got.Heap[pe] != s.Heap[pe] || got.Regs[pe] != s.Regs[pe] {
			t.Fatalf("pe%d heap/regs mismatch", pe)
		}
	}
}

// A page table is input from outside the program: Decode refuses one
// that is out of order, repeats a page, points outside mem_len, or
// disagrees with the payload length, even with both CRCs intact.
func TestDecodeRefusesBadPageTable(t *testing.T) {
	data, err := Encode(testSnap("j00000009", 2, 2, 0x5C))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	if _, err := Decode(reheader(t, data, func(*header) {})); err != nil {
		t.Fatalf("re-signed but unchanged file refused: %v", err)
	}
	for _, tc := range []struct {
		what, want string
		edit       func(*header)
	}{
		{"pages out of order", "out of order", func(h *header) { h.Pages[1] = []int{4, 1} }},
		{"a repeated page", "repeats page 1", func(h *header) { h.Pages[0] = []int{1, 1} }},
		{"a page past mem_len", "outside", func(h *header) { h.Pages[1] = []int{1, 8} }},
		{"a negative page", "outside", func(h *header) { h.Pages[0] = []int{-1, 3} }},
		{"a shrunk mem_len", "outside", func(h *header) { h.MemLen = 4 * mem.PageSize }},
		{"a table shorter than the payload", "promise", func(h *header) { h.Pages[1] = []int{1} }},
		{"a table longer than the payload", "promise", func(h *header) { h.Pages[1] = []int{1, 4, 5} }},
		{"a missing PE's table", "page-table entries", func(h *header) { h.Pages = h.Pages[:1] }},
	} {
		_, err := Decode(reheader(t, data, tc.edit))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Decode error %v, want one mentioning %q", tc.what, err, tc.want)
		}
	}
}

// Every single-byte corruption of a checkpoint file must be a detected
// refusal — header CRC, payload CRC, or size check — never a decode
// that silently returns different state.
func TestDecodeDetectsBitFlips(t *testing.T) {
	s := testSnap("j00000002", 1, 2, 0x3C)
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

// published lists the job's published checkpoint names in dir, newest
// epoch first (FileName zero-pads the epoch, so names sort by it).
func published(t *testing.T, dir, jobID string) []string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, jobID+".e*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, len(paths))
	for i, p := range paths {
		names[len(paths)-1-i] = filepath.Base(p)
	}
	return names
}

func TestStoreWriteLoadRetention(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(hostfs.OS(), dir, 2, t.Logf)
	var names, digests []string
	for epoch := 1; epoch <= 4; epoch++ {
		name, dig, err := st.Write(testSnap("j00000003", epoch, 2, byte(epoch)))
		if err != nil {
			t.Fatalf("write epoch %d: %v", epoch, err)
		}
		names = append(names, name)
		digests = append(digests, dig)
	}
	// Retention 2: epochs 3 and 4 survive, 1 and 2 pruned.
	list := published(t, dir, "j00000003")
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

// TestStoreLoadRefusesV1 loads a T3DCKPT1 file whose digest matches its
// journal record: the load fails as an unsupported version, which the
// serve ladder answers by quarantining the file and replaying the job.
func TestStoreLoadRefusesV1(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(hostfs.OS(), dir, 3, t.Logf)
	data := v1File()
	if got := Digest(data); got != v1Digest {
		t.Fatalf("v1 file digest %s, want %s", got, v1Digest)
	}
	name := FileName("j00000042", 7)
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := st.Load(name, v1Digest)
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("load of a v1 file: %v, want an unsupported-version refusal", err)
	}
}

func TestStoreQuarantineAndSweep(t *testing.T) {
	dir := t.TempDir()
	st := NewStore(hostfs.OS(), dir, 3, t.Logf)
	name, _, err := st.Write(testSnap("j00000004", 1, 1, 0x11))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	st.Quarantine(name)
	if got := published(t, dir, "j00000004"); len(got) != 0 {
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
	keepName, _, err := st.Write(testSnap("j00000005", 2, 1, 0x22))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	dropName, _, err := st.Write(testSnap("j00000006", 1, 1, 0x33))
	if err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "j00000007.e000001.ckpt.tmp"), []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	st.SweepExcept(map[string]bool{keepName: true})
	if got := published(t, dir, "j00000005"); len(got) != 1 || got[0] != keepName {
		t.Fatalf("kept file missing: %v", got)
	}
	if got := published(t, dir, "j00000006"); len(got) != 0 {
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
	if _, _, err := st.Write(testSnap("j00000008", 1, 1, 0x44)); err == nil {
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
