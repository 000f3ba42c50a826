package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hostfs"
)

// Journal record types.
const (
	recSubmitted    = "submitted"    // spec accepted and admitted
	recRunning      = "running"      // a worker picked the job up
	recDone         = "done"         // terminal: result or classified failure
	recAborted      = "aborted"      // a submitted record whose ack never reached the client
	recProbe        = "probe"        // degraded-mode heal probe; carries nothing
	recCheckpointed = "checkpointed" // a durable checkpoint file published for a running job
)

// Record is one write-ahead journal entry. The on-disk form is one line
// per record: an 8-hex-digit CRC32 (IEEE) of the JSON payload, a space,
// the JSON, a newline. The checksum turns silent read-back corruption —
// a host-disk failure mode the simulator-side extI work showed must be
// assumed, not hoped away — into a detected refusal instead of a
// mis-replayed job.
type Record struct {
	Type string `json:"type"`
	ID   string `json:"id,omitempty"`
	Key  string `json:"key,omitempty"` // canonical spec hash, hex
	// Tenant tags the record for operators grepping the journal; replay
	// takes the tenant from Spec (Normalize maps the empty Spec.Tenant of
	// a submit without a tenant to DefaultTenant), so this field is
	// informational.
	Tenant string     `json:"tenant,omitempty"`
	Spec   *JobSpec   `json:"spec,omitempty"`
	Result *JobResult `json:"result,omitempty"`
	Err    string     `json:"err,omitempty"`
	Class  string     `json:"class,omitempty"` // Classify(err) for failed jobs

	// Checkpointed-record payload: the binding from a job to a published
	// checkpoint file. File is the name inside the checkpoint dir (base
	// name only — the dir is configuration, not journal state); Digest is
	// the whole-file FNV-1a of the published bytes, verified before any
	// resume trusts the file; Epoch and Cycles locate the image in the
	// run. Recovery only ever resumes from checkpoints the journal vouches
	// for — a file on disk without a matching record is startup-swept.
	Epoch  int    `json:"epoch,omitempty"`
	File   string `json:"file,omitempty"`
	Digest string `json:"digest,omitempty"`
	Cycles int64  `json:"cycles,omitempty"`
}

// JournalOptions tunes the journal. The zero value is production:
// the real filesystem, 4 MiB segments, 100 ms initial heal backoff.
type JournalOptions struct {
	// FS is the storage layer (nil = the real filesystem). Tests and
	// the fault smoke inject hostfs.Fault / hostfs.Recorder here.
	FS hostfs.FS
	// MaxSegmentBytes rotates the active segment past this size
	// (default 4 MiB). Rotation triggers compaction of sealed segments.
	MaxSegmentBytes int64
	// HealBackoff is the initial degraded-mode probe interval (default
	// 100 ms), doubling to HealBackoffMax (default 5 s).
	HealBackoff    time.Duration
	HealBackoffMax time.Duration
	// RetryAfter is the backoff hint carried by DegradedError
	// (default 1 s) — the journal-layer mirror of the shed hint.
	RetryAfter time.Duration
	// OnHeal, if non-nil, runs after a successful re-arm (outside the
	// journal lock). The server uses it to re-journal done records that
	// completed while the disk was down.
	OnHeal func()
	// Logf, if non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

func (o JournalOptions) withDefaults() JournalOptions {
	if o.FS == nil {
		o.FS = hostfs.OS()
	}
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.HealBackoff <= 0 {
		o.HealBackoff = 100 * time.Millisecond
	}
	if o.HealBackoffMax <= 0 {
		o.HealBackoffMax = 5 * time.Second
	}
	if o.RetryAfter <= 0 {
		o.RetryAfter = time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// JournalHealth is the journal's operational snapshot, served on
// /statusz next to the pool counters.
type JournalHealth struct {
	Segments        int   `json:"segments"` // sealed + active
	SealedBytes     int64 `json:"sealed_bytes"`
	ActiveBytes     int64 `json:"active_bytes"`
	Degraded        bool  `json:"degraded"`
	DegradedCount   int64 `json:"degraded_count"` // times degraded mode was entered
	Appends         int64 `json:"appends"`
	AppendFaults    int64 `json:"append_faults"`
	Rotations       int64 `json:"rotations"`
	Compactions     int64 `json:"compactions"`
	CompactedDrops  int64 `json:"compacted_drops"` // records compaction removed
	LastFsyncMicros int64 `json:"last_fsync_us"`
	HealAttempts    int64 `json:"heal_attempts"`
	Heals           int64 `json:"heals"`
	PendingAborts   int   `json:"pending_aborts"`
}

// Journal is the append-only WAL, hardened against the host disk
// failing. Storage is a sequence of checksummed segments
// (<path>.seg000001, ...). Appends are serialized and durable (write +
// fsync) before they return; any append failure first repairs the
// segment tail (truncate to the last good byte) so a retry can never
// leave garbage between valid records.
//
// When appends fail persistently the journal enters degraded mode:
// Append fails fast with *DegradedError (no disk touch), and a heal
// goroutine probes the disk with exponential backoff — each probe
// rotates to a fresh segment and writes a checksummed probe record.
// When a probe lands, the journal writes aborted records for every
// submit whose ack never reached a client, re-arms, and runs OnHeal.
type Journal struct {
	fs   hostfs.FS
	path string // base path; segments live beside it
	opts JournalOptions

	mu          sync.Mutex
	f           hostfs.File // active segment handle (nil once closed)
	segIndex    int         // active segment number
	size        int64       // bytes in the active segment
	sealed      []string    // sealed segment paths, replay order
	sealedBytes int64
	tainted     bool // active tail may hold garbage; rotate before appending
	closed      bool

	doneIDs    map[string]bool // IDs with a durable done record
	abortedIDs map[string]bool // IDs with (or owed) an aborted record
	pending    []string        // aborts owed to the next healthy segment
	healing    bool
	stopc      chan struct{}

	degraded atomic.Bool
	stats    struct {
		appends, appendFaults, rotations, compactions,
		compactedDrops, healAttempts, heals, degradedCount int64
	}
	lastFsyncUS atomic.Int64
}

func segPath(base string, n int) string { return fmt.Sprintf("%s.seg%06d", base, n) }

// OpenJournal opens (creating if absent) the journal at path with
// default options and replays its existing records.
func OpenJournal(path string) (*Journal, []Record, error) {
	return OpenJournalWith(path, JournalOptions{})
}

// OpenJournalWith opens the journal with explicit options. Replay reads
// every segment in order; a torn tail at the end of a segment — the
// signature of a crash or fault mid-append — is dropped (and, on the
// active segment, truncated away), while corruption anywhere else is a
// refusal: silently skipping acknowledged jobs would break the
// recovery contract.
func OpenJournalWith(path string, opts JournalOptions) (*Journal, []Record, error) {
	opts = opts.withDefaults()
	j := &Journal{
		fs: opts.FS, path: path, opts: opts,
		doneIDs:    make(map[string]bool),
		abortedIDs: make(map[string]bool),
		stopc:      make(chan struct{}),
	}

	dir, base := filepath.Dir(path), filepath.Base(path)
	names, err := j.fs.ReadDir(dir)
	if err != nil {
		return nil, nil, &HostError{Op: "journal open", Err: err}
	}
	// A leftover compaction temp file is pre-rename garbage; drop it.
	if tmp := base + ".compact.tmp"; contains(names, tmp) {
		if err := j.fs.Remove(filepath.Join(dir, tmp)); err != nil {
			opts.Logf("serve: journal: removing stale %s: %v", tmp, err)
		}
	}
	// Replay order: segments sorted; the last is the active one.
	var segNums []int
	for _, n := range names {
		var num int
		if _, err := fmt.Sscanf(n, base+".seg%06d", &num); err == nil && n == fmt.Sprintf("%s.seg%06d", base, num) {
			segNums = append(segNums, num)
		}
	}
	sort.Ints(segNums)

	var recs []Record
	var activeGood int64
	for i, n := range segNums {
		p := segPath(path, n)
		data, err := hostfs.ReadFile(j.fs, p)
		if err != nil {
			return nil, nil, &HostError{Op: "journal open", Err: err}
		}
		segRecs, goodOff, torn := parseSegment(data)
		if torn != nil {
			if goodOff < int64(len(data)) && hasMoreRecords(data, goodOff) {
				return nil, nil, &HostError{Op: "journal replay",
					Err: fmt.Errorf("%s: corrupt record not at the segment tail: %w", p, torn)}
			}
			j.opts.Logf("serve: journal: dropped torn tail in %s (%d good bytes): %v", p, goodOff, torn)
		}
		recs = append(recs, segRecs...)
		if i == len(segNums)-1 {
			activeGood = goodOff
		} else {
			j.sealed = append(j.sealed, p)
			j.sealedBytes += goodOff
		}
	}
	for _, r := range recs {
		j.noteRecord(r)
	}

	if len(segNums) == 0 {
		// Fresh journal: start the first segment.
		j.segIndex = 1
		f, err := j.fs.OpenFile(segPath(path, 1), os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
		if err != nil {
			return nil, nil, &HostError{Op: "journal open", Err: err}
		}
		j.f = f
		return j, recs, nil
	}
	j.segIndex = segNums[len(segNums)-1]
	f, err := j.fs.OpenFile(segPath(path, j.segIndex), os.O_RDWR, 0o644)
	if err != nil {
		return nil, nil, &HostError{Op: "journal open", Err: err}
	}
	if err := f.Truncate(activeGood); err != nil {
		f.Close()
		return nil, nil, &HostError{Op: "journal truncate", Err: err}
	}
	if _, err := f.Seek(activeGood, 0); err != nil {
		f.Close()
		return nil, nil, &HostError{Op: "journal seek", Err: err}
	}
	j.f, j.size = f, activeGood
	return j, recs, nil
}

func contains(names []string, want string) bool {
	for _, n := range names {
		if n == want {
			return true
		}
	}
	return false
}

// noteRecord maintains the compaction filter sets.
func (j *Journal) noteRecord(r Record) {
	switch r.Type {
	case recDone:
		j.doneIDs[r.ID] = true
	case recAborted:
		j.abortedIDs[r.ID] = true
	}
}

// encodeLine renders a record to its checksummed on-disk line.
func encodeLine(r Record) ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(b)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(b))
	line = append(line, b...)
	line = append(line, '\n')
	return line, nil
}

// parseLine decodes one line (sans newline). Empty lines are skipped by
// the caller.
func parseLine(line []byte) (Record, error) {
	var r Record
	if len(line) < 10 || line[8] != ' ' {
		return r, fmt.Errorf("malformed line prefix %q", clip(line))
	}
	var sum uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &sum); err != nil {
		return r, fmt.Errorf("malformed checksum %q: %w", clip(line[:8]), err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return r, fmt.Errorf("checksum mismatch: line says %08x, payload is %08x", sum, got)
	}
	if err := json.Unmarshal(payload, &r); err != nil {
		return r, err
	}
	return r, nil
}

func clip(b []byte) string {
	const max = 32
	if len(b) > max {
		return string(b[:max]) + "..."
	}
	return string(b)
}

// parseSegment walks data line by line. It returns the parsed records,
// the byte offset past the last good record, and the parse error of the
// first bad line (nil if the whole segment is clean). Deciding whether
// that bad line is a tolerable torn tail or a refusal is the caller's
// job, via hasMoreRecords.
func parseSegment(data []byte) ([]Record, int64, error) {
	var recs []Record
	off := int64(0)
	for off < int64(len(data)) {
		rest := data[off:]
		nl := bytes.IndexByte(rest, '\n')
		var line []byte
		lineLen := int64(0)
		if nl < 0 {
			line, lineLen = rest, int64(len(rest))
		} else {
			line, lineLen = rest[:nl], int64(nl)+1
		}
		if len(line) == 0 {
			off += lineLen
			continue
		}
		r, err := parseLine(line)
		if err != nil {
			return recs, off, err
		}
		if nl < 0 {
			// A full record with no trailing newline: the newline write
			// was cut. The record itself is intact but unacked territory
			// begins at its first byte; drop it like any torn tail.
			return recs, off, fmt.Errorf("record missing trailing newline")
		}
		recs = append(recs, r)
		off += lineLen
	}
	return recs, off, nil
}

// hasMoreRecords reports whether any parsable record begins after off —
// the discriminator between a torn tail (tolerated) and mid-segment
// corruption (refused). A torn append can destroy at most the suffix it
// was writing; if valid records follow the damage, the damage was not a
// torn append.
func hasMoreRecords(data []byte, off int64) bool {
	rest := data[off:]
	// Skip the bad line itself.
	nl := bytes.IndexByte(rest, '\n')
	if nl < 0 {
		return false
	}
	recs, _, err := parseSegment(rest[nl+1:])
	// Anything readable past the bad line — a clean record, or a further
	// parse error — means the damage is not a simple torn tail.
	return len(recs) > 0 || err != nil
}

// Degraded reports whether the journal is currently refusing appends
// and probing the disk.
func (j *Journal) Degraded() bool { return j.degraded.Load() }

// RetryAfter is the backoff hint for degraded-mode refusals.
func (j *Journal) RetryAfter() time.Duration { return j.opts.RetryAfter }

// Append writes one record durably: marshal, checksum, write, fsync.
// Failures are *HostError — the transient class; callers retry with
// backoff and escalate to Degrade when the disk stays down. While
// degraded, Append fails fast with *DegradedError without touching
// the disk.
func (j *Journal) Append(r Record) error {
	if j.degraded.Load() {
		return &DegradedError{RetryAfter: j.opts.RetryAfter}
	}
	line, err := encodeLine(r)
	if err != nil {
		return &HostError{Op: "journal marshal", Err: err}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appendLocked(r, line)
}

// appendLocked is the core durable append (j.mu held). It rotates when
// the active segment is full or tainted, repairs the tail on failure,
// and keeps the compaction filter sets current.
func (j *Journal) appendLocked(r Record, line []byte) error {
	if j.f == nil {
		return &HostError{Op: "journal append", Err: fmt.Errorf("journal %s is closed", j.path)}
	}
	if j.tainted || j.size+int64(len(line)) > j.opts.MaxSegmentBytes {
		if err := j.rotateLocked(); err != nil {
			if j.tainted {
				// No clean tail to append to and no fresh segment:
				// nothing durable can be promised.
				return &HostError{Op: "journal rotate", Err: err}
			}
			j.opts.Logf("serve: journal: rotation failed, appending to oversized segment: %v", err)
		} else {
			j.compactLocked()
		}
	}
	pre := j.size
	n, werr := j.f.Write(line)
	if werr != nil {
		j.stats.appendFaults++
		j.repairTailLocked(pre, n)
		return &HostError{Op: "journal append", Err: werr}
	}
	j.size += int64(n)
	t0 := time.Now()
	if serr := j.f.Sync(); serr != nil {
		j.stats.appendFaults++
		// The record's durability is unknown; roll the tail back so the
		// caller's retry re-appends from a clean boundary and the
		// record is either durable once or not at all.
		j.repairTailLocked(pre, n)
		return &HostError{Op: "journal sync", Err: serr}
	}
	j.lastFsyncUS.Store(time.Since(t0).Microseconds())
	j.stats.appends++
	j.noteRecord(r)
	return nil
}

// repairTailLocked truncates the active segment back to pre after a
// failed write of n bytes. If the repair itself fails the segment is
// tainted: the next append rotates away from it, and replay's torn-tail
// tolerance covers the garbage left behind.
func (j *Journal) repairTailLocked(pre int64, wrote int) {
	if wrote <= 0 {
		return
	}
	if err := j.f.Truncate(pre); err != nil {
		j.tainted = true
		j.opts.Logf("serve: journal: tail repair failed, segment tainted: %v", err)
		return
	}
	if _, err := j.f.Seek(pre, 0); err != nil {
		j.tainted = true
		j.opts.Logf("serve: journal: tail repair seek failed, segment tainted: %v", err)
		return
	}
	j.size = pre
}

// rotateLocked seals the active segment and opens the next one.
func (j *Journal) rotateLocked() error {
	next := j.segIndex + 1
	path := segPath(j.path, next)
	f, err := j.fs.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if j.f != nil {
		if err := j.f.Sync(); err != nil {
			j.opts.Logf("serve: journal: sealing sync on %s: %v", segPath(j.path, j.segIndex), err)
		}
		if err := j.f.Close(); err != nil {
			j.opts.Logf("serve: journal: sealing close: %v", err)
		}
		j.sealed = append(j.sealed, segPath(j.path, j.segIndex))
		j.sealedBytes += j.size
	}
	j.f, j.segIndex, j.size, j.tainted = f, next, 0, false
	j.stats.rotations++
	return nil
}

// compactLocked merges the sealed segments into one, keeping only live
// records: done records (the persistent result cache), aborted records
// still canceling a kept submit, and submitted records with neither a
// done nor an aborted mark. Running and probe records never survive.
// The merge is crash-safe by construction — write the survivor file,
// fsync, rename it over the newest merged segment, then remove the
// rest; a crash at any point leaves either the originals or a superset
// of the survivors, and replay is idempotent across duplicates. Done
// records are only ever re-written, never filtered: compaction cannot
// lose one.
func (j *Journal) compactLocked() {
	if len(j.sealed) < 2 {
		return
	}
	var out []byte
	kept, dropped := 0, 0
	seenDone := make(map[string]bool)
	seenAbort := make(map[string]bool)
	for _, p := range j.sealed {
		data, err := hostfs.ReadFile(j.fs, p)
		if err != nil {
			j.opts.Logf("serve: journal: compaction read %s: %v (skipping compaction)", p, err)
			return
		}
		recs, _, perr := parseSegment(data)
		if perr != nil {
			// Sealed segments were validated at open; a parse error here
			// is at worst a torn tail, whose bytes were never acked.
			j.opts.Logf("serve: journal: compaction parse %s: %v (keeping the parsed prefix)", p, perr)
		}
		for _, r := range recs {
			keep := false
			switch r.Type {
			case recDone:
				keep = !seenDone[r.ID]
				seenDone[r.ID] = true
			case recAborted:
				keep = !j.doneIDs[r.ID] && !seenAbort[r.ID]
				seenAbort[r.ID] = true
			case recSubmitted:
				keep = !j.doneIDs[r.ID] && !j.abortedIDs[r.ID]
			case recCheckpointed:
				// A live job's resume ladder; once the job is terminal its
				// checkpoints are swept and the bindings are dead weight.
				keep = !j.doneIDs[r.ID] && !j.abortedIDs[r.ID]
			}
			if !keep {
				dropped++
				continue
			}
			line, err := encodeLine(r)
			if err != nil {
				j.opts.Logf("serve: journal: compaction encode: %v (skipping compaction)", err)
				return
			}
			out = append(out, line...)
			kept++
		}
	}
	tmp := j.path + ".compact.tmp"
	if err := hostfs.WriteFile(j.fs, tmp, out, 0o644); err != nil {
		j.opts.Logf("serve: journal: compaction write: %v (skipping compaction)", err)
		if rerr := j.fs.Remove(tmp); rerr != nil {
			j.opts.Logf("serve: journal: compaction tmp cleanup: %v", rerr)
		}
		return
	}
	target := j.sealed[len(j.sealed)-1]
	if err := j.fs.Rename(tmp, target); err != nil {
		j.opts.Logf("serve: journal: compaction rename: %v (skipping compaction)", err)
		if rerr := j.fs.Remove(tmp); rerr != nil {
			j.opts.Logf("serve: journal: compaction tmp cleanup: %v", rerr)
		}
		return
	}
	for _, p := range j.sealed[:len(j.sealed)-1] {
		if err := j.fs.Remove(p); err != nil {
			// Harmless: replay tolerates the duplicate records.
			j.opts.Logf("serve: journal: compaction remove %s: %v", p, err)
		}
	}
	j.sealed = []string{target}
	j.sealedBytes = int64(len(out))
	j.stats.compactions++
	j.stats.compactedDrops += int64(dropped)
	j.opts.Logf("serve: journal: compacted %d records into %s (%d dropped)", kept, target, dropped)
}

// Degrade flips the journal into degraded mode after the caller's
// bounded retries were exhausted. abortID, when non-empty, is a job ID
// whose submit record may be durable but whose ack never reached the
// client; the heal path writes an aborted record for it so recovery
// does not resurrect an unacknowledged job. Idempotent; the heal loop
// is started at most once per outage.
func (j *Journal) Degrade(abortID string) {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return
	}
	if abortID != "" {
		if !j.abortedIDs[abortID] {
			j.abortedIDs[abortID] = true
			j.pending = append(j.pending, abortID)
		}
	}
	if !j.degraded.Load() {
		j.degraded.Store(true)
		j.stats.degradedCount++
		j.opts.Logf("serve: journal degraded — shedding submits, probing the disk")
	}
	start := !j.healing
	j.healing = true
	j.mu.Unlock()
	if start {
		go j.healLoop()
	}
}

// healLoop probes the disk with exponential backoff until a fresh
// segment accepts a durable probe record, then re-arms.
func (j *Journal) healLoop() {
	backoff := j.opts.HealBackoff
	for {
		select {
		case <-j.stopc:
			return
		case <-time.After(backoff):
		}
		if j.tryHeal() {
			return
		}
		if backoff *= 2; backoff > j.opts.HealBackoffMax {
			backoff = j.opts.HealBackoffMax
		}
	}
}

// tryHeal is one probe: rotate to a fresh segment, write a probe
// record durably, then settle the owed aborts. Returns true when the
// journal is healthy again (or closed).
func (j *Journal) tryHeal() bool {
	j.mu.Lock()
	if j.closed {
		j.healing = false
		j.mu.Unlock()
		return true
	}
	j.stats.healAttempts++
	if err := j.rotateLocked(); err != nil {
		j.opts.Logf("serve: journal: heal rotate: %v", err)
		j.mu.Unlock()
		return false
	}
	probe, err := encodeLine(Record{Type: recProbe})
	if err != nil || j.appendLocked(Record{Type: recProbe}, probe) != nil {
		j.mu.Unlock()
		return false
	}
	// The disk is back. Settle the aborts before re-admitting traffic
	// so recovery order is safe even if we crash right after this.
	for len(j.pending) > 0 {
		id := j.pending[0]
		line, err := encodeLine(Record{Type: recAborted, ID: id})
		if err != nil {
			j.opts.Logf("serve: journal: abort encode for %s: %v", id, err)
			j.pending = j.pending[1:]
			continue
		}
		if err := j.appendLocked(Record{Type: recAborted, ID: id}, line); err != nil {
			j.opts.Logf("serve: journal: heal abort append for %s: %v", id, err)
			j.mu.Unlock()
			return false
		}
		j.pending = j.pending[1:]
	}
	j.degraded.Store(false)
	j.healing = false
	j.stats.heals++
	onHeal := j.opts.OnHeal
	j.opts.Logf("serve: journal healed — accepting submits again")
	j.mu.Unlock()
	if onHeal != nil {
		onHeal()
	}
	return true
}

// Health returns the operational snapshot.
func (j *Journal) Health() JournalHealth {
	j.mu.Lock()
	defer j.mu.Unlock()
	segs := len(j.sealed)
	if j.f != nil {
		segs++
	}
	return JournalHealth{
		Segments:        segs,
		SealedBytes:     j.sealedBytes,
		ActiveBytes:     j.size,
		Degraded:        j.degraded.Load(),
		DegradedCount:   j.stats.degradedCount,
		Appends:         j.stats.appends,
		AppendFaults:    j.stats.appendFaults,
		Rotations:       j.stats.rotations,
		Compactions:     j.stats.compactions,
		CompactedDrops:  j.stats.compactedDrops,
		LastFsyncMicros: j.lastFsyncUS.Load(),
		HealAttempts:    j.stats.healAttempts,
		Heals:           j.stats.heals,
		PendingAborts:   len(j.pending),
	}
}

// ActiveSegment returns the path of the active segment (tests and
// operational tooling).
func (j *Journal) ActiveSegment() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return segPath(j.path, j.segIndex)
}

// Close stops the heal loop, syncs, and closes the journal. Safe to
// call twice.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	close(j.stopc)
	f := j.f
	j.f = nil
	j.mu.Unlock()
	if f == nil {
		return nil
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return &HostError{Op: "journal sync", Err: err}
	}
	if err := f.Close(); err != nil {
		return &HostError{Op: "journal close", Err: err}
	}
	return nil
}

// appendRetry is the transient-failure discipline around journal
// appends: exponential backoff, bounded attempts. Deterministic errors
// never reach here — only *HostError is retriable — so the backoff
// cannot loop on an error that would recur by construction. A degraded
// journal short-circuits: the heal loop owns the disk now, and piling
// retries on top of it would just stack latency on a refusal.
func appendRetry(j *Journal, r Record, attempts int, sleep func(time.Duration)) error {
	backoff := 5 * time.Millisecond
	var err error
	for i := 0; i < attempts; i++ {
		err = j.Append(r)
		if err == nil || isDegraded(err) || Classify(err) != ClassTransient {
			return err
		}
		sleep(backoff)
		backoff *= 2
	}
	return err
}
