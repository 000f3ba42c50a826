package serve

import (
	"errors"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
	"time"
)

// quickSpec is the standard small test job: ~2ms of simulation.
func quickSpec(seed int64) JobSpec {
	return JobSpec{App: AppEM3D, PEs: 2, NodesPerPE: 8, Degree: 2, Iters: 1, Seed: seed}
}

// slowSpec is a job long enough (~100ms) to be caught mid-run.
func slowSpec(seed int64) JobSpec {
	return JobSpec{App: AppEM3D, PEs: 8, NodesPerPE: 120, Degree: 8, Iters: 2, Seed: seed}
}

// referenceDigest runs the spec directly through the batch path — the
// comparator for every cache/recovery bit-identity claim.
func referenceDigest(t *testing.T, spec JobSpec) string {
	t.Helper()
	res, err := runSpec(spec, 0, nil, nil, nil)
	if err != nil {
		t.Fatalf("reference run: %v", err)
	}
	return res.Digest
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Pool.Workers == 0 {
		cfg.Pool.Workers = 2
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	return s
}

// holdJobs makes s's workers wait for release before running a job
// with spec's key, showing it as running meanwhile; started closes when
// one is picked up. Call it before anything is submitted to s, and
// defer release after deferring s.Drain so a failing test cannot leave
// Drain waiting on a held worker.
func holdJobs(s *Server, spec JobSpec) (started <-chan struct{}, release func()) {
	run, key := s.pool.run, Key(spec)
	start, gate := make(chan struct{}), make(chan struct{})
	s.pool.run = func(j *Job) {
		if j.Key == key {
			j.state.Store(int32(StateRunning))
			close(start)
			<-gate
		}
		run(j)
	}
	var once sync.Once
	return start, func() { once.Do(func() { close(gate) }) }
}

func awaitJob(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not finish", j.ID)
	}
}

// TestServerEndToEnd: submit, run, digest matches the batch harness,
// resubmit hits the cache with an identical digest.
func TestServerEndToEnd(t *testing.T) {
	spec := quickSpec(7)
	want := referenceDigest(t, spec)
	s := newTestServer(t, Config{JournalPath: filepath.Join(t.TempDir(), "j.journal")})
	defer s.Drain(5 * time.Second)

	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitJob(t, j)
	if j.State() != StateDone {
		t.Fatalf("job state %v (err %q)", j.State(), j.Err)
	}
	if j.Result.Digest != want {
		t.Fatalf("served digest %s != batch digest %s", j.Result.Digest, want)
	}
	if !j.Result.Validated {
		t.Error("result not validated")
	}
	if j.Result.Cycles <= 0 {
		t.Errorf("cycles %d, want > 0", j.Result.Cycles)
	}
	if p := j.Progress.Read(); p.Iters != p.TotalIters || p.Iters == 0 {
		t.Errorf("final progress %+v, want all iterations complete", p)
	}

	// Cache hit: terminal immediately, same bits, marked Cached.
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if j2.State() != StateDone {
		t.Fatalf("cache hit not terminal: %v", j2.State())
	}
	if !j2.Result.Cached {
		t.Error("cache hit not marked Cached")
	}
	if j2.Result.Digest != want {
		t.Fatalf("cached digest %s != batch digest %s", j2.Result.Digest, want)
	}
	if hits, _, _, _ := s.cache.Stats(); hits != 1 {
		t.Errorf("cache hits %d, want 1", hits)
	}
}

// TestServerInFlightDedup: identical content submitted while the first
// copy is still running attaches to the running job — one simulation,
// two callers.
func TestServerInFlightDedup(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Drain(5 * time.Second)

	spec := slowSpec(9)
	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	j2, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("duplicate Submit: %v", err)
	}
	if j1 != j2 {
		t.Fatalf("duplicate submit got a distinct job: %s vs %s", j1.ID, j2.ID)
	}
	awaitJob(t, j1)
	st := s.Status()
	if st.Dedups != 1 {
		t.Errorf("dedup counter %d, want 1", st.Dedups)
	}
}

// TestServerCycleDeadline: an absurdly small simulated-cycle budget
// fails the job with the deadline class — and the verdict is journaled,
// so a restart reports it instead of re-running.
func TestServerCycleDeadline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	s := newTestServer(t, Config{JournalPath: path})
	spec := quickSpec(7)
	spec.CycleLimit = 50
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitJob(t, j)
	if j.State() != StateFailed {
		t.Fatalf("job state %v, want failed", j.State())
	}
	if j.Class != "deadline" {
		t.Fatalf("class %q (err %q), want deadline", j.Class, j.Err)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// The deadline verdict is terminal: the restarted server has nothing
	// to replay.
	s2 := newTestServer(t, Config{JournalPath: path})
	defer s2.Drain(5 * time.Second)
	if st := s2.Status(); st.Recovered != 0 {
		t.Errorf("deadline job re-enqueued on restart: recovered %d", st.Recovered)
	}
}

// TestServerWallDeadline: a wall budget far below the job's runtime
// cancels it cleanly from the engine's cancel poll.
func TestServerWallDeadline(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Drain(5 * time.Second)
	spec := slowSpec(7)
	spec.WallLimitMS = 1
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitJob(t, j)
	if j.State() != StateFailed || j.Class != "deadline" {
		t.Fatalf("state %v class %q (err %q), want failed/deadline", j.State(), j.Class, j.Err)
	}
	var dl *JobDeadlineError
	if perr := j.TerminalError(); !errors.As(perr, &dl) || dl.Kind != "wall" {
		t.Fatalf("terminal error %v, want *JobDeadlineError{Kind: wall}", perr)
	}
}

// TestServerValidation: a malformed spec is refused outright — no job,
// no journal record.
func TestServerValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Drain(5 * time.Second)
	if _, err := s.Submit(JobSpec{App: "fortran"}); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := s.Submit(JobSpec{App: AppEM3D, Degree: 9999}); err == nil {
		t.Fatal("out-of-range degree accepted")
	}
	if _, err := s.Job("j99999999"); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("unknown job lookup: %v, want ErrUnknownJob", err)
	}
}

// TestServerDrainRefusesAndReplays: draining refuses new work; a job
// aborted by the drain deadline carries no done record and replays on
// restart to the batch digest.
func TestServerDrainRefusesAndReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	spec := slowSpec(11)
	want := referenceDigest(t, spec)

	s := newTestServer(t, Config{JournalPath: path, Pool: PoolConfig{Workers: 1}})
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Drain with a budget far below the job's runtime: the job is
	// aborted, not finished.
	if err := s.Drain(time.Millisecond); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	if _, err := s.Submit(quickSpec(1)); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit while draining: %v, want ErrDraining", err)
	}
	<-j.Done()
	if j.State() == StateDone {
		t.Skip("job finished inside the drain budget; nothing to replay")
	}

	s2 := newTestServer(t, Config{JournalPath: path, Pool: PoolConfig{Workers: 1}})
	defer s2.Drain(10 * time.Second)
	if st := s2.Status(); st.Recovered != 1 {
		t.Fatalf("recovered %d jobs, want 1", st.Recovered)
	}
	rj, err := s2.Job(j.ID)
	if err != nil {
		t.Fatalf("recovered job lookup: %v", err)
	}
	awaitJob(t, rj)
	if rj.State() != StateDone {
		t.Fatalf("recovered job state %v (err %q)", rj.State(), rj.Err)
	}
	if rj.Result.Digest != want {
		t.Fatalf("replayed digest %s != batch digest %s", rj.Result.Digest, want)
	}
}

// TestServerKillAndRecover is the SIGKILL acceptance path: kill the
// server mid-job, restart on the same journal, and the journaled job
// replays to the identical digest the batch harness produces.
func TestServerKillAndRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	spec := slowSpec(13)
	want := referenceDigest(t, spec)

	s := newTestServer(t, Config{JournalPath: path, Pool: PoolConfig{Workers: 1}})
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s.Kill() // no drain protocol, no done record

	s2 := newTestServer(t, Config{JournalPath: path, Pool: PoolConfig{Workers: 1}})
	defer s2.Drain(10 * time.Second)
	st := s2.Status()
	rj, err := s2.Job(j.ID)
	if st.Recovered == 0 || err != nil {
		// The job may have finished before Kill aborted it; then its done
		// record must have fed the cache instead.
		if res, ok := s2.cache.Get(Key(spec), DefaultTenant); ok && res.Digest == want {
			return
		}
		t.Fatalf("job %s neither recovered (%d) nor cached after kill", j.ID, st.Recovered)
	}
	awaitJob(t, rj)
	if rj.State() != StateDone {
		t.Fatalf("recovered job state %v (err %q)", rj.State(), rj.Err)
	}
	if rj.Result.Digest != want {
		t.Fatalf("post-kill replay digest %s != batch digest %s", rj.Result.Digest, want)
	}
	// The replayed result is durable: a third server serves it from
	// cache without running anything.
	s3 := newTestServer(t, Config{JournalPath: path, Pool: PoolConfig{Workers: 1}})
	defer s3.Drain(5 * time.Second)
	j3, err := s3.Submit(spec)
	if err != nil {
		t.Fatalf("submit to third server: %v", err)
	}
	if j3.State() != StateDone || !j3.Result.Cached || j3.Result.Digest != want {
		t.Fatalf("third server not served from recovered cache: state %v cached %v digest %s",
			j3.State(), j3.Result.Cached, j3.Result.Digest)
	}
}

// TestServerDeterministicFaultResult: a deterministic simulation
// verdict (poison from an uncorrectable memory fault) is the job's
// result — reported, journaled, never retried.
func TestServerDeterministicFaultResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.journal")
	s := newTestServer(t, Config{JournalPath: path})
	spec := slowSpec(3)
	spec.Fault = FaultSpec{Seed: 5, MemFaultRate: 2000, MemMultiFrac: 1}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitJob(t, j)
	if j.State() == StateDone {
		t.Skip("fault plan missed live data this seed; nothing to classify")
	}
	if j.Class != "deterministic" {
		t.Fatalf("class %q (err %q), want deterministic", j.Class, j.Err)
	}
	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	// Journaled as terminal: no replay on restart.
	s2 := newTestServer(t, Config{JournalPath: path})
	defer s2.Drain(5 * time.Second)
	if st := s2.Status(); st.Recovered != 0 {
		t.Errorf("deterministic failure re-enqueued on restart: recovered %d", st.Recovered)
	}
}

// liveHeap is the heap the collector found live after a forced cycle.
func liveHeap() int64 {
	runtime.GC()
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(sample)
	return int64(sample[0].Value.Uint64())
}

// TestCacheHitsDoNotGrowServerState: cache hits and finished jobs share
// a fixed window of recent terminal jobs, so a long-running server's job
// table and heap stay bounded however many hits it answers, while a live
// job is never pushed out.
func TestCacheHitsDoNotGrowServerState(t *testing.T) {
	s := newTestServer(t, Config{Pool: PoolConfig{Workers: 1}})
	defer s.Drain(10 * time.Second)
	hit, held := quickSpec(8300), slowSpec(8301)
	started, release := holdJobs(s, held)
	defer release()

	warm, err := s.Submit(hit)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitJob(t, warm)
	live, err := s.Submit(held)
	if err != nil {
		t.Fatalf("Submit held job: %v", err)
	}
	select {
	case <-started:
	case <-time.After(30 * time.Second):
		t.Fatal("held job never started")
	}

	hits := func(n int) (first, last *Job) {
		for i := 0; i < n; i++ {
			j, err := s.Submit(hit)
			if err != nil {
				t.Fatalf("cache hit: %v", err)
			}
			if j.State() != StateDone || !j.Result.Cached {
				t.Fatalf("hit %s: state %v cached %v", j.ID, j.State(), j.Result.Cached)
			}
			if first == nil {
				first = j
			}
			last = j
		}
		return first, last
	}
	// The first window's worth fills the window; what the rest retain
	// is what a long-running server would keep per hit.
	oldest, _ := hits(terminalWindow)
	heap0 := liveHeap()
	const measured = 3 * terminalWindow
	_, newest := hits(measured)
	grown := liveHeap() - heap0
	t.Logf("live heap grew %d B over %d hits", grown, measured)

	if z := s.Status(); z.Jobs > terminalWindow+1 {
		t.Errorf("job table holds %d jobs after %d hits, want at most %d terminal + 1 live",
			z.Jobs, terminalWindow+measured, terminalWindow)
	}
	if perHit := float64(grown) / measured; perHit >= 64 {
		t.Errorf("live heap grew %d B over %d hits (%.0f B per hit), want under 64 B per hit",
			grown, measured, perHit)
	}
	if j, err := s.Job(newest.ID); err != nil || j != newest {
		t.Errorf("newest hit %s: %v", newest.ID, err)
	}
	if _, err := s.Job(oldest.ID); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("oldest hit %s: err %v, want ErrUnknownJob", oldest.ID, err)
	}
	if j, err := s.Job(live.ID); err != nil || j != live {
		t.Fatalf("running job %s evicted: %v", live.ID, err)
	}
	release()
	awaitJob(t, live)
	if j, err := s.Job(live.ID); err != nil || j.State() != StateDone {
		t.Fatalf("finished job %s not retrievable done: %v (state %v, err %q)", live.ID, err, live.State(), live.Err)
	}
}

// TestSubmitCacheHitAllocs pins what a warm cache hit allocates: the Job
// record and its ID string, nothing else. Hits share one closed
// completion channel, and the window of recent terminal jobs is full,
// so each hit evicts the oldest instead of growing it.
func TestSubmitCacheHitAllocs(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Drain(5 * time.Second)
	spec := quickSpec(3)
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitJob(t, j)
	hit := func() {
		if j, err := s.Submit(spec); err != nil || !j.Result.Cached {
			t.Fatalf("cache hit: %v", err)
		}
	}
	for i := 0; i < 2*terminalWindow; i++ {
		hit()
	}
	allocs := testing.AllocsPerRun(1000, hit)
	if allocs > 2 {
		t.Errorf("%v allocations per cache hit, want at most 2 (the Job and its ID)", allocs)
	}
}
