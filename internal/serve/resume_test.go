package serve

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/shell"
	"repro/internal/splitc"
)

// ckptSpec is an em3d job long enough to publish several checkpoints at
// the minimum cadence: small memory (checkpoint files stay a few
// hundred KiB) but enough epochs that a kill lands mid-job.
func ckptSpec(seed int64) JobSpec {
	return JobSpec{
		App: AppEM3D, PEs: 2, NodesPerPE: 48, Degree: 4, Iters: 48,
		Seed: seed, MemBytes: 128 << 10, CheckpointCycles: MinCheckpointCycles,
	}
}

// ckptServerConfig is the standard two-dir layout: journal and
// checkpoint files in separate directories under root.
func ckptServerConfig(t *testing.T, root string) Config {
	t.Helper()
	ckdir := filepath.Join(root, "ck")
	if err := ckpt.MkdirAll(ckdir); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	return Config{
		JournalPath:   filepath.Join(root, "j.journal"),
		CheckpointDir: ckdir,
		Pool:          PoolConfig{Workers: 1, QueueDepth: 8},
	}
}

// awaitCheckpoints polls until the job has published at least n
// checkpoints (or fails the test after a deadline).
func awaitCheckpoints(t *testing.T, j *Job, n int64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.Progress.Checkpoints.Load() >= n {
			return
		}
		select {
		case <-j.Done():
			t.Fatalf("job %s finished with only %d checkpoints, wanted to kill it at %d",
				j.ID, j.Progress.Checkpoints.Load(), n)
		case <-time.After(time.Millisecond):
		}
	}
	t.Fatalf("job %s never reached %d checkpoints (at %d)", j.ID, n, j.Progress.Checkpoints.Load())
}

// ckptFiles lists the checkpoint-shaped files (.ckpt/.tmp/.bad) in dir.
func ckptFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir %s: %v", dir, err)
	}
	var out []string
	for _, e := range ents {
		n := e.Name()
		if strings.HasSuffix(n, ".ckpt") || strings.HasSuffix(n, ".ckpt.tmp") || strings.HasSuffix(n, ".ckpt.bad") {
			out = append(out, n)
		}
	}
	return out
}

// TestResumeAfterKillBitIdentical is the tentpole's end-to-end pin: a
// checkpointed job killed mid-run resumes on the restarted server from
// a durable checkpoint — not epoch 0 — and completes with the digest an
// uninterrupted run produces. After completion its checkpoint files are
// swept.
func TestResumeAfterKillBitIdentical(t *testing.T) {
	spec := ckptSpec(9001)
	want := referenceDigest(t, spec)
	root := t.TempDir()

	s1 := newTestServer(t, ckptServerConfig(t, root))
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitCheckpoints(t, j1, 2)
	s1.Kill()

	s2 := newTestServer(t, ckptServerConfig(t, root))
	defer s2.Drain(10 * time.Second)
	j2, err := s2.Job(j1.ID)
	if err != nil {
		t.Fatalf("killed job not recovered: %v", err)
	}
	awaitJob(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("recovered job ended %v: %s", j2.State(), j2.Err)
	}
	if j2.Result.Digest != want {
		t.Fatalf("resumed digest %s, uninterrupted digest %s", j2.Result.Digest, want)
	}
	if !j2.Progress.Resumed.Load() {
		t.Fatalf("job replayed from scratch despite %d durable checkpoints", j1.Progress.Checkpoints.Load())
	}
	if e := j2.Progress.ResumeEpoch.Load(); e < 1 {
		t.Fatalf("resume epoch %d, want >= 1", e)
	}
	if b := j2.Progress.ResumeCycles.Load(); b <= 0 || j2.Result.Cycles <= b {
		t.Fatalf("resume banked %d cycles, final %d — total must exceed the base", b, j2.Result.Cycles)
	}

	// The statusz surface reports the resume.
	z := s2.Status()
	if z.Checkpoints == nil || len(z.Checkpoints.Resumed) != 1 || z.Checkpoints.Resumed[0].ID != j2.ID {
		t.Fatalf("statusz checkpoint block missing the resumed job: %+v", z.Checkpoints)
	}

	// Terminal + durable done record: the job's checkpoints are swept.
	if files := ckptFiles(t, filepath.Join(root, "ck")); len(files) != 0 {
		t.Fatalf("checkpoint files leaked after completion: %v", files)
	}
}

// TestResumeFallbackLadder corrupts the newest checkpoint on disk: the
// restarted server must detect it (digest mismatch), quarantine it, and
// resume from the next-older checkpoint — never trust the bad bytes.
func TestResumeFallbackLadder(t *testing.T) {
	spec := ckptSpec(9002)
	want := referenceDigest(t, spec)
	root := t.TempDir()

	s1 := newTestServer(t, ckptServerConfig(t, root))
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitCheckpoints(t, j1, 2)
	s1.Kill()

	ckdir := filepath.Join(root, "ck")
	names := ckptFiles(t, ckdir)
	if len(names) < 2 {
		t.Fatalf("want >= 2 checkpoint files, have %v", names)
	}
	// Names sort by epoch (zero-padded); the last is the newest.
	newest := names[len(names)-1]
	p := filepath.Join(ckdir, newest)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	s2 := newTestServer(t, ckptServerConfig(t, root))
	defer s2.Drain(10 * time.Second)
	j2, err := s2.Job(j1.ID)
	if err != nil {
		t.Fatalf("killed job not recovered: %v", err)
	}
	awaitJob(t, j2)
	if j2.Result.Digest != want {
		t.Fatalf("digest %s after fallback, want %s", j2.Result.Digest, want)
	}
	if !j2.Progress.Resumed.Load() {
		t.Fatalf("older checkpoint not used — job replayed from scratch")
	}
	z := s2.Status()
	if z.Checkpoints == nil || z.Checkpoints.Stats.Quarantined < 1 {
		t.Fatalf("corrupt newest checkpoint was not quarantined: %+v", z.Checkpoints)
	}
	if files := ckptFiles(t, ckdir); len(files) != 0 {
		t.Fatalf("checkpoint files (or quarantine leftovers) leaked: %v", files)
	}
}

// TestResumeAllCorruptFallsBackToReplay damages every checkpoint: the
// ladder exhausts, the job replays from scratch, and the digest is
// still right — corruption costs time, never correctness.
func TestResumeAllCorruptFallsBackToReplay(t *testing.T) {
	spec := ckptSpec(9003)
	want := referenceDigest(t, spec)
	root := t.TempDir()

	s1 := newTestServer(t, ckptServerConfig(t, root))
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitCheckpoints(t, j1, 2)
	s1.Kill()

	ckdir := filepath.Join(root, "ck")
	names := ckptFiles(t, ckdir)
	if len(names) < 2 {
		t.Fatalf("want >= 2 checkpoint files, have %v", names)
	}
	for _, n := range names {
		p := filepath.Join(ckdir, n)
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		data[len(data)/2] ^= 0x01
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatalf("WriteFile: %v", err)
		}
	}

	s2 := newTestServer(t, ckptServerConfig(t, root))
	defer s2.Drain(10 * time.Second)
	j2, err := s2.Job(j1.ID)
	if err != nil {
		t.Fatalf("killed job not recovered: %v", err)
	}
	awaitJob(t, j2)
	if j2.Result.Digest != want {
		t.Fatalf("digest %s after full replay, want %s", j2.Result.Digest, want)
	}
	if j2.Progress.Resumed.Load() {
		t.Fatalf("job claims a resume though every checkpoint was corrupt")
	}
	z := s2.Status()
	if z.Checkpoints == nil || z.Checkpoints.Stats.Quarantined < int64(len(names)) {
		t.Fatalf("quarantined %d, want >= %d", z.Checkpoints.Stats.Quarantined, len(names))
	}
	if files := ckptFiles(t, ckdir); len(files) != 0 {
		t.Fatalf("checkpoint files leaked: %v", files)
	}
}

// TestBindFailureUnpublishesCheckpoint pins the write-then-bind
// protocol directly: when the journal append between a checkpoint write
// and its record fails (here: journal closed, exactly what a cancel
// racing a drain produces), the just-published file is removed — no
// half-published checkpoint survives without a journal record vouching
// for it.
func TestBindFailureUnpublishesCheckpoint(t *testing.T) {
	root := t.TempDir()
	j, _, err := OpenJournal(filepath.Join(root, "j.journal"))
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	ckdir := filepath.Join(root, "ck")
	if err := ckpt.MkdirAll(ckdir); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}
	store := ckpt.NewStore(nil, ckdir, 3, t.Logf)

	c := &ckptRun{store: store, journal: j, id: "j00000042", tenant: "default",
		interval: 1, logf: t.Logf}
	var prog Progress
	sink := c.sink(0, &prog)
	sink(&splitc.MachineSnapshot{
		Epoch:  1,
		Cycles: 100,
		Mem:    [][]byte{make([]byte, 64)},
		Regs:   []shell.RegSnapshot{{}},
		Heap:   []int64{0},
	})

	if got := prog.CheckpointFails.Load(); got != 1 {
		t.Fatalf("CheckpointFails = %d, want 1", got)
	}
	if got := prog.Checkpoints.Load(); got != 0 {
		t.Fatalf("Checkpoints = %d, want 0", got)
	}
	if files := ckptFiles(t, ckdir); len(files) != 0 {
		t.Fatalf("unbound checkpoint stranded on disk: %v", files)
	}
}

// TestResumeAccountingNotUndercounted pins the satellite accounting
// invariants: a resumed job's Cycles include the banked base (the
// resume's fresh setup rendezvous makes the total drift a hair from an
// uninterrupted run's, but dropping the base would cut it by the whole
// resume fraction), the tenant's cycle ledger is charged that full
// amount, and the cache entry carries the full cost — a resume can
// never make work look cheaper than it was.
func TestResumeAccountingNotUndercounted(t *testing.T) {
	spec := ckptSpec(9004)

	// Uninterrupted run through a checkpointing server: the recoverable
	// runner's cycle account, including epoch-boundary costs.
	rootRef := t.TempDir()
	sr := newTestServer(t, ckptServerConfig(t, rootRef))
	jr, err := sr.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitJob(t, jr)
	if jr.State() != StateDone {
		t.Fatalf("reference job ended %v: %s", jr.State(), jr.Err)
	}
	refCycles := jr.Result.Cycles
	if err := sr.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Kill/resume run.
	root := t.TempDir()
	s1 := newTestServer(t, ckptServerConfig(t, root))
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitCheckpoints(t, j1, 2)
	s1.Kill()

	s2 := newTestServer(t, ckptServerConfig(t, root))
	defer s2.Drain(10 * time.Second)
	j2, err := s2.Job(j1.ID)
	if err != nil {
		t.Fatalf("killed job not recovered: %v", err)
	}
	awaitJob(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("resumed job ended %v: %s", j2.State(), j2.Err)
	}
	if !j2.Progress.Resumed.Load() {
		t.Fatalf("job did not resume; accounting comparison is vacuous")
	}
	base := j2.Progress.ResumeCycles.Load()
	if base <= 0 || j2.Result.Cycles <= base {
		t.Fatalf("resumed job accounts %d cycles over a %d-cycle base — the tail went missing",
			j2.Result.Cycles, base)
	}
	// Dropping the base would cut the total by the whole resume fraction
	// (>= one checkpoint interval, here ~40%+ of the run); timing drift
	// from the resume's setup rendezvous is orders smaller.
	if j2.Result.Cycles < refCycles*95/100 {
		t.Fatalf("resumed job accounts %d cycles, uninterrupted run %d — the banked base was dropped",
			j2.Result.Cycles, refCycles)
	}

	// Tenant ledger on the resumed server: charged the full logical
	// cycles, not just the post-resume tail.
	var charged int64
	for _, ts := range s2.pool.TenantSnapshots() {
		if ts.Tenant == DefaultTenant {
			charged = ts.CyclesUsed
		}
	}
	if charged < j2.Result.Cycles {
		t.Fatalf("tenant charged %d cycles for a %d-cycle job — resume undercounted the charge",
			charged, j2.Result.Cycles)
	}

	// Cache entry cost: evicting by cost must see the full cycles. The
	// cache exposes cost indirectly; pin it via the cached result.
	res, ok := s2.cache.Get(j2.Key, DefaultTenant)
	if !ok {
		t.Fatalf("resumed result not cached")
	}
	if res.Cycles != j2.Result.Cycles {
		t.Fatalf("cached result carries %d cycles, want %d", res.Cycles, j2.Result.Cycles)
	}
}

// TestCheckpointCadenceExcludedFromKey: cadence tunes durability, not
// content — two specs differing only in checkpoint_cycles are the same
// computation and must share a cache line.
func TestCheckpointCadenceExcludedFromKey(t *testing.T) {
	a := ckptSpec(9005)
	b := a
	b.CheckpointCycles = 0
	c := a
	c.CheckpointCycles = 10 * MinCheckpointCycles
	if Key(a) != Key(b) || Key(a) != Key(c) {
		t.Fatalf("checkpoint_cycles leaked into the canonical hash: %016x %016x %016x",
			Key(a), Key(b), Key(c))
	}
}
