package serve

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/hostfs"
)

func openTestJournal(t *testing.T, path string) (*Journal, []Record) {
	t.Helper()
	j, recs, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal(%s): %v", path, err)
	}
	return j, recs
}

// TestJournalRoundTrip: appended records replay in order on reopen.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, recs := openTestJournal(t, path)
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	spec := JobSpec{App: AppEM3D, Seed: 7}
	res := JobResult{App: AppEM3D, Digest: "00deadbeef00cafe", Cycles: 123, Validated: true}
	want := []Record{
		{Type: recSubmitted, ID: "j00000001", Key: KeyString(spec), Spec: &spec},
		{Type: recRunning, ID: "j00000001"},
		{Type: recDone, ID: "j00000001", Key: KeyString(spec), Spec: &spec, Result: &res},
	}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j2, got := openTestJournal(t, path)
	defer j2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].ID != want[i].ID || got[i].Key != want[i].Key {
			t.Errorf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[2].Result == nil || got[2].Result.Digest != res.Digest {
		t.Errorf("done record lost the result: %+v", got[2].Result)
	}
}

// TestJournalTornTail: a partial final line — the signature of a crash
// mid-append — is dropped and truncated away; the journal then appends
// cleanly from the last good record.
func TestJournalTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, _ := openTestJournal(t, path)
	spec := JobSpec{App: AppEM3D, Seed: 7}
	for _, id := range []string{"j00000001", "j00000002"} {
		if err := j.Append(Record{Type: recSubmitted, ID: id, Spec: &spec}); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	active := j.ActiveSegment()
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Simulate the crash: half a record, no newline, on the active
	// segment (records live in segments now, not the bare base path).
	f, err := os.OpenFile(active, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`deadbeef {"type":"done","id":"j0000`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, recs := openTestJournal(t, path)
	if len(recs) != 2 {
		t.Fatalf("replayed %d records past a torn tail, want 2", len(recs))
	}
	if err := j2.Append(Record{Type: recDone, ID: "j00000001", Spec: &spec}); err != nil {
		t.Fatalf("Append after torn-tail recovery: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	j3, recs := openTestJournal(t, path)
	defer j3.Close()
	if len(recs) != 3 {
		t.Fatalf("replayed %d records after healing, want 3", len(recs))
	}
	if recs[2].Type != recDone || recs[2].ID != "j00000001" {
		t.Errorf("healed tail record wrong: %+v", recs[2])
	}
}

// TestJournalMidFileCorruption: a corrupt record that is NOT the final
// line cannot be a torn append — refusing to open beats silently
// dropping acknowledged jobs.
func TestJournalMidFileCorruption(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	sub, err := encodeLine(Record{Type: recSubmitted, ID: "j00000001"})
	if err != nil {
		t.Fatal(err)
	}
	done, err := encodeLine(Record{Type: recDone, ID: "j00000001"})
	if err != nil {
		t.Fatal(err)
	}
	content := append(append(sub, "GARBAGE NOT JSON\n"...), done...)
	if err := os.WriteFile(path+".seg000001", content, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err = OpenJournal(path); err == nil {
		t.Fatal("OpenJournal accepted mid-file corruption")
	}
	var host *HostError
	if !errors.As(err, &host) {
		t.Fatalf("corruption error is %T, want *HostError", err)
	}
}

// TestJournalChecksumFlip: a single flipped byte in a checksummed
// record — silent read-back corruption, not a torn append — is detected
// by the CRC. Mid-file it refuses the open; on the final line it is
// indistinguishable from a torn tail and is dropped.
func TestJournalChecksumFlip(t *testing.T) {
	build := func(t *testing.T) (string, string) {
		t.Helper()
		path := filepath.Join(t.TempDir(), "j.journal")
		j, _ := openTestJournal(t, path)
		spec := JobSpec{App: AppEM3D, Seed: 7}
		for _, id := range []string{"j00000001", "j00000002"} {
			if err := j.Append(Record{Type: recSubmitted, ID: id, Spec: &spec}); err != nil {
				t.Fatal(err)
			}
		}
		active := j.ActiveSegment()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return path, active
	}
	flip := func(t *testing.T, seg string, line int) {
		t.Helper()
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		// Flip a payload byte inside the chosen line (0-indexed).
		off, cur := 0, 0
		for cur < line {
			for data[off] != '\n' {
				off++
			}
			off++
			cur++
		}
		data[off+12] ^= 0x01
		if err := os.WriteFile(seg, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("mid-file refused", func(t *testing.T) {
		path, seg := build(t)
		flip(t, seg, 0)
		_, _, err := OpenJournal(path)
		var host *HostError
		if !errors.As(err, &host) {
			t.Fatalf("flipped mid-file record: err = %v, want *HostError refusal", err)
		}
	})
	t.Run("tail dropped", func(t *testing.T) {
		path, seg := build(t)
		flip(t, seg, 1)
		j, recs, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("flipped tail record should be dropped, got %v", err)
		}
		defer j.Close()
		if len(recs) != 1 || recs[0].ID != "j00000001" {
			t.Fatalf("replayed %+v, want only j00000001", recs)
		}
	})
}

// TestJournalEmptyAndSingleTorn: the degenerate segments — completely
// empty, or holding nothing but one torn record — open cleanly as an
// empty journal and accept appends.
func TestJournalEmptyAndSingleTorn(t *testing.T) {
	for name, content := range map[string]string{
		"empty":      "",
		"singleTorn": `deadbeef {"type":"subm`,
	} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j.journal")
			if err := os.WriteFile(path+".seg000001", []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			j, recs, err := OpenJournal(path)
			if err != nil {
				t.Fatalf("OpenJournal: %v", err)
			}
			if len(recs) != 0 {
				t.Fatalf("replayed %d records from %s segment", len(recs), name)
			}
			if err := j.Append(Record{Type: recSubmitted, ID: "j00000001"}); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			j2, recs := openTestJournal(t, path)
			defer j2.Close()
			if len(recs) != 1 || recs[0].ID != "j00000001" {
				t.Fatalf("after heal, replayed %+v", recs)
			}
		})
	}
}

// TestJournalRotationBoundary: records spanning a segment rotation all
// replay, in order, and rotation actually produced multiple segments.
func TestJournalRotationBoundary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, _, err := OpenJournalWith(path, JournalOptions{MaxSegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{App: AppEM3D, Seed: 7}
	const n = 12
	for i := 1; i <= n; i++ {
		id := jobID(i)
		if err := j.Append(Record{Type: recSubmitted, ID: id, Spec: &spec}); err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
	}
	if h := j.Health(); h.Rotations == 0 || h.Segments < 2 {
		t.Fatalf("256-byte segments never rotated: %+v", h)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs := openTestJournal(t, path)
	defer j2.Close()
	if len(recs) != n {
		t.Fatalf("replayed %d records across rotation, want %d", len(recs), n)
	}
	for i, r := range recs {
		if want := jobID(i + 1); r.ID != want {
			t.Fatalf("record %d out of order: got %s, want %s", i, r.ID, want)
		}
	}
}

func jobID(n int) string { return fmtID(n) }

func fmtID(n int) string { return fmt.Sprintf("j%08d", n) }

// TestJournalCompaction: rotation-triggered compaction drops finished
// submit/running churn but never a done record, and the compacted
// journal still replays every result.
func TestJournalCompaction(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, _, err := OpenJournalWith(path, JournalOptions{MaxSegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{App: AppEM3D, Seed: 7}
	const n = 10
	for i := 1; i <= n; i++ {
		id := fmtID(i)
		res := JobResult{App: AppEM3D, Digest: fmt.Sprintf("d%07d", i)}
		for _, r := range []Record{
			{Type: recSubmitted, ID: id, Spec: &spec},
			{Type: recRunning, ID: id},
			{Type: recDone, ID: id, Spec: &spec, Result: &res},
		} {
			if err := j.Append(r); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
	}
	h := j.Health()
	if h.Compactions == 0 {
		t.Fatalf("no compaction ran over %d segment rotations: %+v", h.Rotations, h)
	}
	if h.CompactedDrops == 0 {
		t.Fatalf("compaction dropped nothing: %+v", h)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, recs := openTestJournal(t, path)
	defer j2.Close()
	seen := map[string]string{}
	for _, r := range recs {
		if r.Type == recDone && r.Result != nil {
			seen[r.ID] = r.Result.Digest
		}
	}
	for i := 1; i <= n; i++ {
		if got, want := seen[fmtID(i)], fmt.Sprintf("d%07d", i); got != want {
			t.Fatalf("done record for %s lost by compaction: digest %q, want %q", fmtID(i), got, want)
		}
	}
}

// TestJournalDegradedLifecycle: persistent write failure degrades the
// journal (fail-fast DegradedError), the heal loop re-arms when the
// disk returns, owed aborts are settled durably, and a post-heal replay
// sees the abort instead of resurrecting the unacked submit.
func TestJournalDegradedLifecycle(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.journal")
	fsys := hostfs.NewFault(hostfs.OS(), hostfs.FaultConfig{})
	j, _, err := OpenJournalWith(path, JournalOptions{
		FS:          fsys,
		HealBackoff: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{App: AppEM3D, Seed: 7}
	if err := j.Append(Record{Type: recSubmitted, ID: "j00000001", Spec: &spec}); err != nil {
		t.Fatal(err)
	}

	fsys.SetBroken(hostfs.BrokenEIO)
	err = j.Append(Record{Type: recSubmitted, ID: "j00000002", Spec: &spec})
	if err == nil || isDegraded(err) {
		t.Fatalf("first append against a broken disk: %v, want plain *HostError", err)
	}
	j.Degrade("j00000002") // the submit's ack never happened
	if err := j.Append(Record{Type: recSubmitted, ID: "j00000003"}); !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("degraded append err = %v, want ErrJournalDegraded", err)
	}
	if !j.Degraded() {
		t.Fatal("journal not reporting degraded")
	}

	// Let the heal loop probe against the still-broken disk a few times.
	deadline := time.Now().Add(time.Second)
	for j.Health().HealAttempts == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	fsys.Heal()
	fsys.SetBroken(hostfs.Healthy)
	for j.Degraded() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if j.Degraded() {
		t.Fatal("journal never healed after the disk recovered")
	}
	if err := j.Append(Record{Type: recDone, ID: "j00000001", Spec: &spec,
		Result: &JobResult{App: AppEM3D, Digest: "abc"}}); err != nil {
		t.Fatalf("post-heal append: %v", err)
	}
	h := j.Health()
	if h.Heals != 1 || h.DegradedCount != 1 || h.PendingAborts != 0 {
		t.Fatalf("health after heal: %+v", h)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, recs := openTestJournal(t, path)
	defer j2.Close()
	var sawAbort bool
	for _, r := range recs {
		if r.Type == recAborted && r.ID == "j00000002" {
			sawAbort = true
		}
	}
	if !sawAbort {
		t.Fatalf("heal did not persist the owed abort: %+v", recs)
	}
}

// TestJournalClosedAppend: appends after Close fail transient — the
// caller's retry loop handles it, not a crash.
func TestJournalClosedAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, _ := openTestJournal(t, path)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	err := j.Append(Record{Type: recSubmitted, ID: "j00000001"})
	if err == nil {
		t.Fatal("Append on closed journal succeeded")
	}
	if got := Classify(err); got != ClassTransient {
		t.Errorf("closed-journal append classified %v, want transient", got)
	}
}

// TestAppendRetryBackoff: transient failures retry with exponential
// backoff and give up after the attempt budget.
func TestAppendRetryBackoff(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	j, _ := openTestJournal(t, path)
	j.Close() // every Append now fails transient

	var sleeps []time.Duration
	err := appendRetry(j, Record{Type: recSubmitted, ID: "j00000001"}, 3,
		func(d time.Duration) { sleeps = append(sleeps, d) })
	if err == nil {
		t.Fatal("appendRetry succeeded against a closed journal")
	}
	want := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	if len(sleeps) != len(want) {
		t.Fatalf("slept %d times (%v), want %d", len(sleeps), sleeps, len(want))
	}
	for i := range want {
		if sleeps[i] != want[i] {
			t.Errorf("backoff %d: %v, want %v", i, sleeps[i], want[i])
		}
	}
}
