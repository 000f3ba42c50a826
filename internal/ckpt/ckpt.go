// Package ckpt is the durable checkpoint layer: it serializes the
// barrier-aligned machine snapshots splitc.Recovery already takes in
// memory (splitc.MachineSnapshot, tagged with the owning job) into
// versioned, checksummed files, published atomically through the
// hostfs VFS so every host-disk failure mode the journal is hardened
// against (EIO, ENOSPC, short/torn writes, crash mid-rename) applies to
// checkpoints too.
//
// On-disk format, one file per committed checkpoint:
//
//	T3DCKPT1 <8-hex CRC32 of header JSON> <header JSON>\n
//	<payload: the per-PE DRAM images, concatenated in PE order>
//
// The header carries the job identity, the epoch the image resumes at,
// the cumulative simulated cycles the image accounts for, the per-PE
// shell registers and runtime heap cursors, and a CRC32 of the payload.
// It is the codec's private form of the snapshot: only Encode and
// Decode see it. The header line is self-checking (its own CRC) and the
// payload is checked against the header's PayloadCRC, so a torn or
// bit-flipped file is a detected refusal, never a silently wrong
// resume. On top of both CRCs, the journal's checkpointed record stores
// an FNV-1a digest of the whole file, binding journal entry to file
// content: a file that was swapped, truncated, or regenerated does not
// match its record.
//
// Publication is tmp + write + fsync + rename: a crash leaves either
// the previous checkpoint set plus a garbage .tmp (swept at startup) or
// the new file whole. Retention keeps the newest K checkpoints per job;
// a file that fails validation at resume is quarantined (renamed .bad)
// so recovery falls back to the next-older checkpoint and, with none
// left, to full replay.
package ckpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/hostfs"
	"repro/internal/shell"
	"repro/internal/splitc"
)

// Version is the checkpoint format version, baked into the magic token
// ("T3DCKPT1"). Readers refuse other versions rather than guess.
const Version = 1

const magic = "T3DCKPT"

// Format bounds: a header asking for more PEs or memory than any
// machine this repo can build is corruption, not configuration.
const (
	maxPEs    = 4096
	maxMemLen = 1 << 31
)

// header is the on-disk form of a Snapshot. JSON tags and field order
// are the format: they fix the header bytes, and with them every file
// digest the journal has recorded. The bulk payload lives outside the
// JSON.
type header struct {
	Version    int         `json:"v"`
	JobID      string      `json:"job_id"`
	Epoch      int         `json:"epoch"`  // epoch a resume of this image starts at
	Cycles     int64       `json:"cycles"` // cumulative simulated cycles the image accounts for
	PEs        int         `json:"pes"`
	MemLen     int64       `json:"mem_len"` // DRAM image bytes per PE
	Heap       []int64     `json:"heap"`    // per-PE runtime heap cursor
	Regs       [][3]uint64 `json:"regs"`    // per-PE shell registers: FI0, FI1, swap
	PayloadCRC uint32      `json:"payload_crc"`
}

// Snapshot is one checkpoint file's content: the owning job and the
// machine snapshot. Decode returns Mem as views into the input buffer;
// callers that outlive the buffer must copy.
type Snapshot struct {
	JobID string
	splitc.MachineSnapshot
}

// Encode renders a snapshot to its on-disk bytes.
func Encode(s *Snapshot) ([]byte, error) {
	pes := len(s.Mem)
	if pes < 1 || len(s.Heap) != pes || len(s.Regs) != pes {
		return nil, fmt.Errorf("ckpt: encode: %d mem/%d heap/%d regs entries",
			pes, len(s.Heap), len(s.Regs))
	}
	h := header{
		Version: Version, JobID: s.JobID, Epoch: s.Epoch, Cycles: s.Cycles,
		PEs: pes, MemLen: int64(len(s.Mem[0])), Heap: s.Heap,
		Regs: make([][3]uint64, pes),
	}
	for pe, r := range s.Regs {
		h.Regs[pe] = [3]uint64{r.FI[0], r.FI[1], r.Swap}
	}
	crc := crc32.NewIEEE()
	for pe, m := range s.Mem {
		if int64(len(m)) != h.MemLen {
			return nil, fmt.Errorf("ckpt: encode: pe%d image %d bytes, mem_len %d", pe, len(m), h.MemLen)
		}
		crc.Write(m)
	}
	h.PayloadCRC = crc.Sum32()
	hdr, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("ckpt: encode header: %w", err)
	}
	buf := make([]byte, 0, len(hdr)+pes*int(h.MemLen)+24)
	buf = fmt.Appendf(buf, "%s%d %08x ", magic, Version, crc32.ChecksumIEEE(hdr))
	buf = append(buf, hdr...)
	buf = append(buf, '\n')
	for _, m := range s.Mem {
		buf = append(buf, m...)
	}
	return buf, nil
}

// parseHeader validates and decodes the header line, returning the
// header and the byte offset where the payload begins. Every refusal
// is explicit: a resume path must never act on a header it cannot
// prove whole.
func parseHeader(data []byte) (header, int, error) {
	var h header
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return h, 0, fmt.Errorf("ckpt: header: no newline (torn or not a checkpoint)")
	}
	line := data[:nl]
	tok := bytes.SplitN(line, []byte(" "), 3)
	if len(tok) != 3 {
		return h, 0, fmt.Errorf("ckpt: header: want 3 fields, got %d", len(tok))
	}
	if !bytes.HasPrefix(tok[0], []byte(magic)) {
		return h, 0, fmt.Errorf("ckpt: header: bad magic %q", clip(tok[0]))
	}
	if string(tok[0]) != fmt.Sprintf("%s%d", magic, Version) {
		return h, 0, fmt.Errorf("ckpt: header: unsupported version token %q (want %s%d)", clip(tok[0]), magic, Version)
	}
	if len(tok[1]) != 8 {
		return h, 0, fmt.Errorf("ckpt: header: malformed checksum %q", clip(tok[1]))
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(tok[1]), "%08x", &sum); err != nil {
		return h, 0, fmt.Errorf("ckpt: header: malformed checksum %q: %w", clip(tok[1]), err)
	}
	if got := crc32.ChecksumIEEE(tok[2]); got != sum {
		return h, 0, fmt.Errorf("ckpt: header: checksum mismatch (header says %08x, payload is %08x)", sum, got)
	}
	if err := json.Unmarshal(tok[2], &h); err != nil {
		return h, 0, fmt.Errorf("ckpt: header: %w", err)
	}
	if h.Version != Version {
		return h, 0, fmt.Errorf("ckpt: header: version %d inside a %s%d file", h.Version, magic, Version)
	}
	if h.PEs < 1 || h.PEs > maxPEs {
		return h, 0, fmt.Errorf("ckpt: header: pes %d out of range [1,%d]", h.PEs, maxPEs)
	}
	if h.MemLen < 0 || h.MemLen > maxMemLen {
		return h, 0, fmt.Errorf("ckpt: header: mem_len %d out of range [0,%d]", h.MemLen, maxMemLen)
	}
	if len(h.Heap) != h.PEs || len(h.Regs) != h.PEs {
		return h, 0, fmt.Errorf("ckpt: header: %d PEs but %d heap/%d regs entries", h.PEs, len(h.Heap), len(h.Regs))
	}
	if h.Epoch < 0 {
		return h, 0, fmt.Errorf("ckpt: header: negative epoch %d", h.Epoch)
	}
	return h, nl + 1, nil
}

// Decode parses a whole checkpoint file: header, size, and payload CRC
// all validated. Mem entries are views into data.
func Decode(data []byte) (*Snapshot, error) {
	h, off, err := parseHeader(data)
	if err != nil {
		return nil, err
	}
	need := int64(h.PEs) * h.MemLen
	if got := int64(len(data) - off); got != need {
		return nil, fmt.Errorf("ckpt: payload: %d bytes, header promises %d (torn or padded file)", got, need)
	}
	if got := crc32.ChecksumIEEE(data[off:]); got != h.PayloadCRC {
		return nil, fmt.Errorf("ckpt: payload: checksum mismatch (header says %08x, payload is %08x)", h.PayloadCRC, got)
	}
	s := &Snapshot{JobID: h.JobID, MachineSnapshot: splitc.MachineSnapshot{
		Epoch: h.Epoch, Cycles: h.Cycles, Heap: h.Heap,
		Mem:  make([][]byte, h.PEs),
		Regs: make([]shell.RegSnapshot, h.PEs),
	}}
	for pe := range s.Mem {
		lo := off + pe*int(h.MemLen)
		s.Mem[pe] = data[lo : lo+int(h.MemLen)]
		r := h.Regs[pe]
		s.Regs[pe] = shell.RegSnapshot{FI: [2]uint64{r[0], r[1]}, Swap: r[2]}
	}
	return s, nil
}

func clip(b []byte) string {
	const max = 24
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// Digest is the whole-file FNV-1a (64-bit) the journal's checkpointed
// record stores — the binding between a journal entry and the exact
// bytes it vouches for.
func Digest(data []byte) string {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, b := range data {
		h ^= uint64(b)
		h *= prime
	}
	return fmt.Sprintf("%016x", h)
}

// FileName is the published name of a checkpoint: job ID and epoch,
// zero-padded so lexical order is epoch order within a job. Names are
// flat (no subdirectories) because the crash harness replays them into
// a flat directory.
func FileName(jobID string, epoch int) string {
	return fmt.Sprintf("%s.e%06d.ckpt", jobID, epoch)
}

// isCkptFile matches every file this package may have created:
// published checkpoints, unpublished temporaries, quarantined bads.
func isCkptFile(name string) bool {
	return strings.HasSuffix(name, ".ckpt") ||
		strings.HasSuffix(name, ".ckpt.tmp") ||
		strings.HasSuffix(name, ".ckpt.bad")
}

// StoreStats is the store's operational counter block, served on
// /statusz. Counters cover this process's lifetime; Bytes is the sum
// of checkpoint bytes published (not the live directory size, which
// the minimal VFS cannot stat).
type StoreStats struct {
	Writes          int64 `json:"writes"`
	WriteFailures   int64 `json:"write_failures"`
	Bytes           int64 `json:"bytes"`
	Pruned          int64 `json:"pruned"`
	Quarantined     int64 `json:"quarantined"`
	Swept           int64 `json:"swept"`
	LastWriteUnixMS int64 `json:"last_write_unix_ms,omitempty"`
}

// Store manages one directory of checkpoint files through a hostfs.FS.
// The directory must exist (the caller creates it; the VFS has no
// mkdir). All methods are safe for concurrent use.
type Store struct {
	fs     hostfs.FS
	dir    string
	retain int
	logf   func(string, ...any)

	mu    sync.Mutex
	stats StoreStats
}

// NewStore builds a store over dir. retain <= 0 defaults to 3; fsys nil
// defaults to the real filesystem.
func NewStore(fsys hostfs.FS, dir string, retain int, logf func(string, ...any)) *Store {
	if fsys == nil {
		fsys = hostfs.OS()
	}
	if retain <= 0 {
		retain = 3
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Store{fs: fsys, dir: dir, retain: retain, logf: logf}
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

// Write publishes one checkpoint atomically: encode, write + fsync to a
// .tmp, rename into place, then prune the job past the retention bound.
// It returns the published file name (relative to the store directory —
// what the journal record carries) and the whole-file digest. On any
// failure the .tmp is removed best-effort and nothing is published.
func (st *Store) Write(s *Snapshot) (name, digest string, err error) {
	data, err := Encode(s)
	if err != nil {
		return "", "", err
	}
	name = FileName(s.JobID, s.Epoch)
	tmp := filepath.Join(st.dir, name+".tmp")
	if err := hostfs.WriteFile(st.fs, tmp, data, 0o644); err != nil {
		if rerr := st.fs.Remove(tmp); rerr != nil {
			st.logf("ckpt: tmp cleanup %s: %v", tmp, rerr)
		}
		st.fail()
		return "", "", fmt.Errorf("ckpt: write %s: %w", name, err)
	}
	if err := st.fs.Rename(tmp, filepath.Join(st.dir, name)); err != nil {
		if rerr := st.fs.Remove(tmp); rerr != nil {
			st.logf("ckpt: tmp cleanup %s: %v", tmp, rerr)
		}
		st.fail()
		return "", "", fmt.Errorf("ckpt: publish %s: %w", name, err)
	}
	st.mu.Lock()
	st.stats.Writes++
	st.stats.Bytes += int64(len(data))
	st.stats.LastWriteUnixMS = time.Now().UnixMilli()
	st.mu.Unlock()
	st.pruneJob(s.JobID)
	return name, Digest(data), nil
}

func (st *Store) fail() {
	st.mu.Lock()
	st.stats.WriteFailures++
	st.mu.Unlock()
}

// pruneJob removes the job's published checkpoints beyond the newest
// retain. Best-effort: a failed remove only costs disk space.
func (st *Store) pruneJob(jobID string) {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		st.logf("ckpt: prune readdir: %v", err)
		return
	}
	var epochs []int
	prefix := jobID + ".e"
	for _, n := range names {
		var e int
		if strings.HasPrefix(n, prefix) && n == FileName(jobID, atoiSuffix(n, prefix, &e)) {
			epochs = append(epochs, e)
		}
	}
	if len(epochs) <= st.retain {
		return
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	for _, e := range epochs[st.retain:] {
		p := filepath.Join(st.dir, FileName(jobID, e))
		if err := st.fs.Remove(p); err != nil {
			st.logf("ckpt: prune %s: %v", p, err)
			continue
		}
		st.mu.Lock()
		st.stats.Pruned++
		st.mu.Unlock()
	}
}

// atoiSuffix parses the epoch out of "<prefix><epoch>.ckpt", storing it
// in *e and returning it (so the caller can round-trip through FileName
// to reject malformed names).
func atoiSuffix(name, prefix string, e *int) int {
	rest := strings.TrimPrefix(name, prefix)
	rest = strings.TrimSuffix(rest, ".ckpt")
	v := 0
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c < '0' || c > '9' {
			return -1
		}
		v = v*10 + int(c-'0')
	}
	*e = v
	return v
}

// Load reads and fully validates one published checkpoint. A non-empty
// wantDigest must match the whole-file digest — the journal-binding
// check — before the header or payload are even parsed.
func (st *Store) Load(name, wantDigest string) (*Snapshot, error) {
	data, err := hostfs.ReadFile(st.fs, filepath.Join(st.dir, name))
	if err != nil {
		return nil, fmt.Errorf("ckpt: load %s: %w", name, err)
	}
	if wantDigest != "" {
		if got := Digest(data); got != wantDigest {
			return nil, fmt.Errorf("ckpt: load %s: file digest %s, journal says %s", name, got, wantDigest)
		}
	}
	s, err := Decode(data)
	if err != nil {
		return nil, fmt.Errorf("ckpt: load %s: %w", name, err)
	}
	return s, nil
}

// Quarantine renames a checkpoint that failed validation to .bad so the
// fallback ladder never retries it and a human can autopsy it. The
// rename failing is tolerable — Load will keep refusing the file.
func (st *Store) Quarantine(name string) {
	from := filepath.Join(st.dir, name)
	if err := st.fs.Rename(from, from+".bad"); err != nil {
		st.logf("ckpt: quarantine %s: %v", name, err)
		return
	}
	st.mu.Lock()
	st.stats.Quarantined++
	st.mu.Unlock()
	st.logf("ckpt: quarantined %s", name)
}

// Remove deletes one published checkpoint — the unpublish path when the
// journal binding for a just-written file cannot be made durable.
func (st *Store) Remove(name string) error {
	return st.fs.Remove(filepath.Join(st.dir, name))
}

// SweepJob removes every checkpoint artifact (published, tmp, bad) of a
// finished job: its done record is durable, so no resume will ever
// want them.
func (st *Store) SweepJob(jobID string) {
	st.sweep(func(name string) bool {
		return strings.HasPrefix(name, jobID+".e")
	})
}

// SweepExcept removes every checkpoint artifact whose published name is
// not in keep — the startup GC. Temporaries and quarantined files are
// never in keep, so a crash mid-publish or mid-quarantine leaks
// nothing past the next start.
func (st *Store) SweepExcept(keep map[string]bool) {
	st.sweep(func(name string) bool {
		return !keep[name]
	})
}

func (st *Store) sweep(doomed func(string) bool) {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		st.logf("ckpt: sweep readdir: %v", err)
		return
	}
	for _, n := range names {
		if !isCkptFile(n) || !doomed(n) {
			continue
		}
		if err := st.fs.Remove(filepath.Join(st.dir, n)); err != nil {
			st.logf("ckpt: sweep %s: %v", n, err)
			continue
		}
		st.mu.Lock()
		st.stats.Swept++
		st.mu.Unlock()
	}
}

// List returns the published checkpoint names for a job, newest epoch
// first — the resume candidate order.
func (st *Store) List(jobID string) []string {
	names, err := st.fs.ReadDir(st.dir)
	if err != nil {
		// No candidates is a lawful answer (resume falls back to full
		// replay), but an unreadable directory deserves a line.
		st.logf("ckpt: list %s: %v", st.dir, err)
		return nil
	}
	var epochs []int
	prefix := jobID + ".e"
	for _, n := range names {
		var e int
		if strings.HasPrefix(n, prefix) && n == FileName(jobID, atoiSuffix(n, prefix, &e)) {
			epochs = append(epochs, e)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(epochs)))
	out := make([]string, len(epochs))
	for i, e := range epochs {
		out[i] = FileName(jobID, e)
	}
	return out
}

// Stats returns the counter snapshot.
func (st *Store) Stats() StoreStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.stats
}

// MkdirAll creates the store directory on the real filesystem — the one
// concession to the VFS having no mkdir. Callers running over an
// injected FS must pre-create the directory themselves (tests use
// t.TempDir()).
func MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
