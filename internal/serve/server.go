package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/hostfs"
	"repro/internal/sim"
)

// Config tunes a Server.
type Config struct {
	Pool PoolConfig
	// JournalPath is the write-ahead journal base path (segments are
	// created beside it). Empty disables crash-safety (in-memory
	// service, useful for tests and one-offs).
	JournalPath string
	// FS is the journal's storage layer (nil = the real filesystem).
	// The disk-fault smoke and the crash harness inject hostfs.Fault /
	// hostfs.Recorder here.
	FS hostfs.FS
	// MaxSegmentBytes rotates journal segments past this size
	// (default 4 MiB; rotation triggers compaction).
	MaxSegmentBytes int64
	// HealBackoff is the initial degraded-mode probe interval
	// (default 100 ms, doubling to 5 s).
	HealBackoff time.Duration
	// CacheCap bounds the result cache (default 1024 entries).
	CacheCap int
	// DefaultCycleLimit is the per-job simulated-cycle budget when the
	// spec carries none (default 2e9 cycles ≈ 13 simulated seconds).
	DefaultCycleLimit int64
	// DefaultWallLimit is the per-job wall-clock budget when the spec
	// carries none (default 120s).
	DefaultWallLimit time.Duration

	// CheckpointDir, when non-empty (and journaling is on — the journal
	// vouches for every checkpoint), enables durable mid-job checkpoints:
	// em3d jobs with a checkpoint cadence persist barrier-aligned machine
	// snapshots there and resume from them after a crash. The directory
	// must exist (ckpt.MkdirAll; the fault-injectable VFS has no mkdir).
	CheckpointDir string
	// CheckpointRetain is how many checkpoint files are kept per job
	// (default 3); older ones are pruned as new ones publish.
	CheckpointRetain int
	// DefaultCheckpointCycles is the checkpoint cadence for em3d specs
	// that carry none (0 = checkpointing off unless the spec asks).
	DefaultCheckpointCycles int64

	// Logf, if non-nil, receives one line per notable event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.CacheCap <= 0 {
		c.CacheCap = 1024
	}
	if c.DefaultCycleLimit <= 0 {
		c.DefaultCycleLimit = 2_000_000_000
	}
	if c.DefaultWallLimit <= 0 {
		c.DefaultWallLimit = 120 * time.Second
	}
	if c.CheckpointRetain <= 0 {
		c.CheckpointRetain = 3
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// Server is the multi-tenant simulation service: admission-controlled
// job execution over the deterministic simulator, with a write-ahead
// journal for crash recovery and a content-addressed result cache.
type Server struct {
	cfg     Config
	pool    *Pool
	cache   *Cache
	journal *Journal    // nil when journaling is disabled
	ckpts   *ckpt.Store // nil when checkpointing is disabled

	mu    sync.Mutex
	jobs  map[string]*Job // by ID, terminal jobs included
	byKey map[uint64]*Job // non-terminal jobs, for in-flight dedup
	seq   int             // next job number
	drain bool            // readyz gate
	stats struct{ submits, dedups, recovered int64 }

	// unjournaled holds done records that could not be appended while
	// the journal was degraded; the heal callback re-appends them so a
	// later restart serves those results from the cache instead of
	// re-running the jobs.
	unjournaled []Record
}

// NewServer opens (and replays) the journal and starts the worker
// pool. Journal recovery order: done records repopulate the cache
// first — the recovery fast path — then every acknowledged job without
// a done record is re-enqueued, bypassing admission; determinism
// replays it to the same digest the lost process would have produced.
func NewServer(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: NewCache(cfg.CacheCap),
		jobs:  make(map[string]*Job),
		byKey: make(map[uint64]*Job),
		seq:   1,
	}

	var recovered []*Job
	if cfg.JournalPath != "" {
		j, recs, err := OpenJournalWith(cfg.JournalPath, JournalOptions{
			FS:              cfg.FS,
			MaxSegmentBytes: cfg.MaxSegmentBytes,
			HealBackoff:     cfg.HealBackoff,
			OnHeal:          s.onJournalHealed,
			Logf:            cfg.Logf,
		})
		if err != nil {
			return nil, err
		}
		s.journal = j
		if cfg.CheckpointDir != "" {
			s.ckpts = ckpt.NewStore(cfg.FS, cfg.CheckpointDir, cfg.CheckpointRetain, cfg.Logf)
		}
		done := make(map[string]bool)
		aborted := make(map[string]bool)
		pending := make(map[string]*Record)
		ckrefs := make(map[string][]ckptRef)
		order := []string{}
		for i := range recs {
			r := &recs[i]
			switch r.Type {
			case recSubmitted:
				if r.Spec != nil {
					pending[r.ID] = r
					order = append(order, r.ID)
				}
			case recDone:
				done[r.ID] = true
				delete(pending, r.ID)
				if r.Result != nil && r.Spec != nil {
					s.cache.Put(Key(*r.Spec), r.Spec.Normalize().Tenant, *r.Result)
				}
			case recAborted:
				// The submit's ack never reached a client: the job must
				// not resurrect.
				aborted[r.ID] = true
				delete(pending, r.ID)
			case recCheckpointed:
				if r.File != "" && r.Digest != "" {
					ckrefs[r.ID] = append(ckrefs[r.ID],
						ckptRef{File: r.File, Digest: r.Digest, Epoch: r.Epoch})
				}
			}
			if n := seqOf(r.ID); n >= s.seq {
				s.seq = n + 1
			}
		}
		// Done records may omit the spec; recover cache entries from the
		// submitted record's spec instead.
		for _, id := range order {
			r, ok := pending[id]
			if !ok || done[id] || aborted[id] {
				continue
			}
			// A spec submitted without a tenant is journaled with an
			// empty Spec.Tenant; Normalize maps it onto the default
			// tenant, so replay competes in its queue like any other
			// recovered work.
			job := &Job{ID: r.ID, Key: Key(*r.Spec), Tenant: r.Spec.Normalize().Tenant,
				Spec: *r.Spec, done: make(chan struct{})}
			if _, dup := s.byKey[job.Key]; dup {
				// Same content already recovering: finishing the first
				// run completes both logically; drop the duplicate.
				continue
			}
			// Attach the job's resume ladder newest-first: the worker
			// tries the freshest checkpoint and falls back through older
			// ones, so a damaged newest costs one interval, not the run.
			if refs := ckrefs[job.ID]; len(refs) > 0 && s.ckpts != nil {
				job.resume = make([]ckptRef, len(refs))
				for i, ref := range refs {
					job.resume[len(refs)-1-i] = ref
				}
			}
			s.jobs[job.ID] = job
			s.byKey[job.Key] = job
			recovered = append(recovered, job)
		}
		// Startup sweep: every checkpoint file no live job's journal
		// records vouch for is garbage — terminal jobs' leftovers, and
		// files published in the instant before a crash whose binding
		// record never landed. Removing the latter closes the
		// write-then-crash stranding window from the recovery side.
		if s.ckpts != nil {
			keep := make(map[string]bool)
			for _, job := range recovered {
				for _, ref := range job.resume {
					keep[ref.File] = true
				}
			}
			s.ckpts.SweepExcept(keep)
		}
	}

	s.pool = NewPool(cfg.Pool, s.execute)
	for _, j := range recovered {
		s.stats.recovered++
		s.pool.Enqueue(j)
		cfg.Logf("serve: recovered job %s (key %016x) from journal", j.ID, j.Key)
	}
	return s, nil
}

func seqOf(id string) int {
	if n, err := strconv.Atoi(strings.TrimPrefix(id, "j")); err == nil {
		return n
	}
	return 0 // foreign ID shape; never minted by this server
}

// Submit validates, dedups, admits, and journals one spec. The
// returned job may already be terminal (cache hit). *ShedError,
// *QuotaError, ErrDraining, and validation errors map to HTTP
// 429/429/503/400.
func (s *Server) Submit(spec JobSpec) (*Job, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	key := Key(spec)
	tenant := spec.Tenant
	if tenant == "" {
		tenant = DefaultTenant
	}

	s.mu.Lock()
	if s.drain {
		s.mu.Unlock()
		return nil, ErrDraining
	}
	s.stats.submits++
	// In-flight dedup: identical content already queued or running —
	// attach the caller to that job instead of simulating twice. The
	// hash excludes tenant, so dedup crosses tenants by design: the
	// second tenant rides the first's run for free.
	if live, ok := s.byKey[key]; ok {
		s.stats.dedups++
		s.mu.Unlock()
		return live, nil
	}
	// Cache hit: done before it started. Served even while the journal
	// is degraded — a cached result needs no new durability.
	if res, ok := s.cache.Get(key, tenant); ok {
		job := s.newJobLocked(key, tenant, spec)
		res.Cached = true
		job.Result = res
		job.state.Store(int32(StateDone))
		close(job.done)
		s.mu.Unlock()
		return job, nil
	}
	// Degraded journal: a new job cannot be made durable, so its ack
	// would be a lie. Shed it with the retry hint; in-flight and cached
	// work above is unaffected.
	if s.journal != nil && s.journal.Degraded() {
		s.mu.Unlock()
		return nil, &DegradedError{RetryAfter: s.journal.RetryAfter()}
	}
	// Admission is decided under s.mu, and only an admitted job enters
	// byKey: a duplicate submit can never dedup onto a job the pool
	// sheds. Pool.Submit takes only the pool's own lock.
	job := s.newJobLocked(key, tenant, spec)
	if err := s.pool.Submit(job); err != nil {
		delete(s.jobs, job.ID)
		s.mu.Unlock()
		return nil, err
	}
	s.byKey[key] = job
	s.mu.Unlock()

	// WAL: the job is acknowledged only after its submitted record is
	// durable. A crash before this append loses a job no client was
	// ever promised.
	if err := s.journalSubmitted(job); err != nil {
		job.aborted.Store(true)
		s.forget(job)
		return nil, err
	}
	return job, nil
}

// newJobLocked allocates a job and registers it by ID (s.mu held).
func (s *Server) newJobLocked(key uint64, tenant string, spec JobSpec) *Job {
	job := &Job{ID: fmt.Sprintf("j%08d", s.seq), Key: key, Tenant: tenant, Spec: spec,
		done: make(chan struct{})}
	s.seq++
	s.jobs[job.ID] = job
	return job
}

// forget unregisters a job whose submit record could not be journaled.
func (s *Server) forget(job *Job) {
	s.mu.Lock()
	delete(s.jobs, job.ID)
	if s.byKey[job.Key] == job {
		delete(s.byKey, job.Key)
	}
	s.mu.Unlock()
}

func (s *Server) journalSubmitted(job *Job) error {
	if s.journal == nil {
		return nil
	}
	spec := job.Spec
	if err := appendRetry(s.journal, Record{
		Type: recSubmitted, ID: job.ID, Key: fmt.Sprintf("%016x", job.Key),
		Tenant: job.Tenant, Spec: &spec,
	}, 5, time.Sleep); err != nil {
		// The disk is staying down: degrade. The submit record may be
		// durable even though the append failed (fsync ambiguity), so
		// the job ID rides along for an aborted record on heal —
		// otherwise recovery would resurrect a job no client was ever
		// told about.
		if !isDegraded(err) {
			s.journal.Degrade(job.ID)
		}
		s.cfg.Logf("serve: journal submit record for %s: %v (shedding)", job.ID, err)
		return &DegradedError{RetryAfter: s.journal.RetryAfter()}
	}
	return nil
}

// onJournalHealed re-appends done records that completed while the
// journal was degraded, so their results survive a later restart as
// cache entries instead of forcing a replay.
func (s *Server) onJournalHealed() {
	s.mu.Lock()
	recs := s.unjournaled
	s.unjournaled = nil
	s.mu.Unlock()
	for i, r := range recs {
		if err := s.journal.Append(r); err != nil {
			s.cfg.Logf("serve: re-journal of %s after heal: %v", r.ID, err)
			s.mu.Lock()
			s.unjournaled = append(recs[i:], s.unjournaled...)
			s.mu.Unlock()
			return
		}
	}
	if len(recs) > 0 {
		s.cfg.Logf("serve: re-journaled %d done records after heal", len(recs))
	}
}

// execute runs one job on a worker. Terminal handling implements the
// retry taxonomy: results and deterministic/deadline failures get a
// durable done record (never re-run); a drain abort writes nothing, so
// the restarted server replays the job.
func (s *Server) execute(j *Job) {
	if j.aborted.Load() {
		s.finish(j, JobResult{}, ErrDraining)
		return
	}
	j.state.Store(int32(StateRunning))
	j.wallDeadline = time.Now().Add(s.wallLimit(j))
	if s.journal != nil {
		// Informational; recovery keys off submitted/done only.
		if err := s.journal.Append(Record{Type: recRunning, ID: j.ID}); err != nil {
			s.cfg.Logf("serve: journal running record: %v", err)
		}
	}

	cancel := func() error {
		if j.aborted.Load() {
			return ErrDraining
		}
		if time.Now().After(j.wallDeadline) {
			return &JobDeadlineError{ID: j.ID, Kind: "wall", Budget: int64(s.wallLimit(j) / time.Millisecond)}
		}
		return nil
	}
	var ck *ckptRun
	if interval := s.checkpointCycles(j); interval > 0 {
		ck = &ckptRun{store: s.ckpts, journal: s.journal, id: j.ID, tenant: j.Tenant,
			interval: interval, refs: j.resume, logf: s.cfg.Logf}
	}
	res, err := runSpec(j.Spec, s.cycleLimit(j), cancel, &j.Progress, ck)
	// The engine reports an expired cycle budget as *sim.LimitError;
	// lift it into the service deadline taxonomy so clients see one
	// sentinel for both budget kinds.
	var lim *sim.LimitError
	if errors.As(err, &lim) {
		err = &JobDeadlineError{ID: j.ID, Kind: "cycles", Budget: lim.Limit}
	}
	// Charge the tenant's cycle bucket for work actually burned: the
	// result's cycles on success, the progress counter on failure (a
	// deadline-killed flood still spent real simulation).
	if err == nil {
		s.pool.ChargeCycles(j.Tenant, res.Cycles)
		s.cache.Put(j.Key, j.Tenant, res)
	} else {
		s.pool.ChargeCycles(j.Tenant, j.Progress.Cycles.Load())
	}
	s.finish(j, res, err)
}

// checkpointCycles resolves a job's durable-checkpoint cadence: the
// spec's normalized value, else the server default (clamped to the same
// floor Normalize applies). Zero — or a server without a checkpoint
// store — means no checkpointing.
func (s *Server) checkpointCycles(j *Job) int64 {
	if s.ckpts == nil || s.journal == nil {
		return 0
	}
	n := j.Spec.Normalize()
	if n.App != AppEM3D {
		return 0
	}
	interval := n.CheckpointCycles
	if interval == 0 {
		interval = s.cfg.DefaultCheckpointCycles
	}
	if interval > 0 && interval < MinCheckpointCycles {
		interval = MinCheckpointCycles
	}
	return interval
}

func (s *Server) cycleLimit(j *Job) int64 {
	if j.Spec.CycleLimit > 0 {
		return j.Spec.CycleLimit
	}
	return s.cfg.DefaultCycleLimit
}

func (s *Server) wallLimit(j *Job) time.Duration {
	if j.Spec.WallLimitMS > 0 {
		return time.Duration(j.Spec.WallLimitMS) * time.Millisecond
	}
	return s.cfg.DefaultWallLimit
}

// finish releases a job's dedup slot, marks it terminal, and journals
// the outcome. The slot goes first: from here on the job is finished
// work, and a resubmit must find the result execute already cached,
// not wait on this job's done-record fsync.
func (s *Server) finish(j *Job, res JobResult, err error) {
	s.mu.Lock()
	if s.byKey[j.Key] == j {
		delete(s.byKey, j.Key)
	}
	s.mu.Unlock()
	var rec *Record
	if err == nil {
		j.Result = res
		j.state.Store(int32(StateDone))
		spec := j.Spec
		rec = &Record{Type: recDone, ID: j.ID, Key: fmt.Sprintf("%016x", j.Key),
			Tenant: j.Tenant, Spec: &spec, Result: &res}
	} else {
		class := Classify(err)
		j.Err = err.Error()
		j.Class = class.String()
		j.terr = err
		j.state.Store(int32(StateFailed))
		if !errors.Is(err, ErrDraining) {
			// Deterministic and deadline failures are terminal results:
			// journal them so a restart reports instead of re-running.
			// A drain abort is the one failure that must NOT be
			// journaled — the job replays after restart.
			spec := j.Spec
			rec = &Record{Type: recDone, ID: j.ID, Key: fmt.Sprintf("%016x", j.Key),
				Tenant: j.Tenant, Spec: &spec, Err: j.Err, Class: j.Class}
		}
		s.cfg.Logf("serve: job %s failed (%s): %v", j.ID, j.Class, err)
	}
	if rec != nil && s.journal != nil {
		if jerr := appendRetry(s.journal, *rec, 5, time.Sleep); jerr != nil {
			s.cfg.Logf("serve: journal done record for %s: %v (re-journaled on heal, else replays on restart)", j.ID, jerr)
			if !isDegraded(jerr) {
				s.journal.Degrade("")
			}
			// Keep the outcome for the heal callback: the result lives
			// in the cache either way, but only a durable done record
			// survives a restart.
			s.mu.Lock()
			s.unjournaled = append(s.unjournaled, *rec)
			s.mu.Unlock()
		} else if s.ckpts != nil {
			// The outcome is durable; the job's checkpoints are now dead
			// weight. Sweep only after the done record lands — a job whose
			// terminal state did not persist (drain abort, degraded disk)
			// keeps its ladder so the restart resumes instead of replaying
			// from scratch.
			s.ckpts.SweepJob(j.ID)
		}
	}
	close(j.done)
}

// Job returns the job with the given ID.
func (s *Server) Job(id string) (*Job, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	return j, nil
}

// Drain gracefully shuts the service down: stop admitting (readyz goes
// 503, submits get ErrDraining), let in-flight work finish within
// timeout, then abort stragglers — unfinished journaled jobs replay on
// the next start — and close the journal. Idempotent-ish: a second
// call waits again but everything is already stopped.
func (s *Server) Drain(timeout time.Duration) error {
	s.mu.Lock()
	s.drain = true
	s.mu.Unlock()
	s.pool.SetDraining()

	deadline := time.Now().Add(timeout)
	for !s.pool.Idle() && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if !s.pool.Idle() {
		s.mu.Lock()
		for _, j := range s.jobs {
			st := j.State()
			if st == StateQueued || st == StateRunning {
				j.aborted.Store(true)
			}
		}
		s.mu.Unlock()
	}
	s.pool.Stop()
	if s.journal != nil {
		return s.journal.Close()
	}
	return nil
}

// Kill is the crash path (tests and emergencies): abort everything and
// abandon the journal without the drain protocol, as a SIGKILL would.
// Running jobs are canceled so their worker goroutines exit; nothing
// terminal is journaled, so a restart replays them.
func (s *Server) Kill() {
	s.mu.Lock()
	s.drain = true
	for _, j := range s.jobs {
		j.aborted.Store(true)
	}
	s.mu.Unlock()
	s.pool.SetDraining()
	s.pool.Stop()
	if s.journal != nil {
		if err := s.journal.Close(); err != nil {
			s.cfg.Logf("serve: journal close on kill: %v", err)
		}
	}
}

// --- HTTP layer ---

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID       string     `json:"id"`
	Key      string     `json:"key"`
	Tenant   string     `json:"tenant,omitempty"`
	State    string     `json:"state"`
	Progress Snapshot   `json:"progress"`
	Result   *JobResult `json:"result,omitempty"`
	Error    string     `json:"error,omitempty"`
	Class    string     `json:"class,omitempty"`
}

func statusOf(j *Job) JobStatus {
	st := JobStatus{
		ID: j.ID, Key: fmt.Sprintf("%016x", j.Key), Tenant: j.Tenant,
		State: j.State().String(), Progress: j.Progress.Read(),
	}
	switch j.State() {
	case StateDone:
		r := j.Result
		st.Result = &r
	case StateFailed:
		st.Error, st.Class = j.Err, j.Class
	}
	return st
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("GET /statusz", s.handleStatusz)
	return mux
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		// The client went away mid-response; nothing to recover.
		_ = err
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]string{"error": "bad spec: " + err.Error()})
		return
	}
	// The header names the tenant without touching the spec body; a
	// tenant set in the body wins so signed/stored specs stay portable.
	if spec.Tenant == "" {
		spec.Tenant = r.Header.Get("X-T3D-Tenant")
	}
	job, err := s.Submit(spec)
	switch {
	case err == nil:
	case errors.Is(err, ErrJournalDegraded):
		var deg *DegradedError
		retry := time.Second
		if errors.As(err, &deg) {
			retry = deg.RetryAfter
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds()+0.999)))
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	case errors.Is(err, ErrShed):
		var shed *ShedError
		retry := time.Second
		if errors.As(err, &shed) {
			retry = shed.RetryAfter
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds()+0.999)))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
		return
	case errors.Is(err, ErrQuotaExceeded):
		// Per-tenant refusal: same 429 surface as a shed, but the
		// Retry-After reflects only this tenant's quota state.
		var q *QuotaError
		retry := time.Second
		if errors.As(err, &q) {
			retry = q.RetryAfter
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(retry.Seconds()+0.999)))
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": err.Error()})
		return
	case errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "10")
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": err.Error()})
		return
	default:
		code := http.StatusBadRequest
		var host *HostError
		if errors.As(err, &host) {
			code = http.StatusInternalServerError
		}
		writeJSON(w, code, map[string]string{"error": err.Error()})
		return
	}
	code := http.StatusAccepted
	if j := job.State(); j == StateDone || j == StateFailed {
		code = http.StatusOK
	}
	writeJSON(w, code, statusOf(job))
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, map[string]string{"error": err.Error()})
		return
	}
	if r.URL.Query().Get("watch") == "" {
		writeJSON(w, http.StatusOK, statusOf(job))
		return
	}
	// Watch mode: stream NDJSON status snapshots — cycle-accurate
	// partial progress — until the job is terminal.
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	ticker := time.NewTicker(50 * time.Millisecond)
	defer ticker.Stop()
	var last JobStatus
	for {
		st := statusOf(job)
		if st != last {
			if enc.Encode(st) != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
			last = st
		}
		if job.State() == StateDone || job.State() == StateFailed {
			return
		}
		select {
		case <-job.Done():
		case <-ticker.C:
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready := !s.drain
	s.mu.Unlock()
	if ready && s.journal != nil && s.journal.Degraded() {
		ready = false
	}
	if !ready {
		w.Header().Set("Retry-After", "10")
		http.Error(w, "not ready", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// TenantStatus is one tenant's block on /statusz: its queue and quota
// state from the pool merged with its cache accounting.
type TenantStatus struct {
	TenantSnapshot
	CacheHits      int64 `json:"cache_hits"`
	CacheEvictions int64 `json:"cache_evictions"`
}

// Statusz is the operational counter snapshot.
type Statusz struct {
	Queued         int   `json:"queued"`
	Running        int   `json:"running"`
	Window         int   `json:"window"`
	Sheds          int64 `json:"sheds"`
	Completed      int64 `json:"completed"`
	Submits        int64 `json:"submits"`
	Dedups         int64 `json:"dedups"`
	Recovered      int64 `json:"recovered"`
	CacheHits      int64 `json:"cache_hits"`
	CacheMisses    int64 `json:"cache_misses"`
	CacheEvictions int64 `json:"cache_evictions"`
	CacheSize      int   `json:"cache_size"`
	Draining       bool  `json:"draining"`
	// Tenants is the per-tenant breakdown (queue depth, quota state,
	// sheds, cache hits/evictions) in first-seen order — the block the
	// noisy-neighbor smoke reads to tell who is being throttled.
	Tenants []TenantStatus `json:"tenants,omitempty"`
	// Journal is the WAL health block (nil when journaling is off):
	// segment count/bytes, degraded flag, fsync latency, rotation and
	// compaction counters.
	Journal *JournalHealth `json:"journal,omitempty"`
	// Checkpoints is the durable-checkpoint block (nil when
	// checkpointing is off): store counters plus the jobs currently in
	// the system that resumed from a checkpoint.
	Checkpoints *CheckpointStatus `json:"checkpoints,omitempty"`
}

// ResumedJob is one job's resume summary on /statusz.
type ResumedJob struct {
	ID           string `json:"id"`
	Tenant       string `json:"tenant,omitempty"`
	State        string `json:"state"`
	ResumeEpoch  int64  `json:"resume_epoch"`
	ResumeCycles int64  `json:"resume_cycles"`
	Checkpoints  int64  `json:"checkpoints"`
}

// CheckpointStatus is the durable-checkpoint block on /statusz.
type CheckpointStatus struct {
	Dir     string          `json:"dir"`
	Retain  int             `json:"retain"`
	Stats   ckpt.StoreStats `json:"stats"`
	Resumed []ResumedJob    `json:"resumed,omitempty"`
}

// Status returns the counter snapshot (also served at /statusz).
func (s *Server) Status() Statusz {
	var z Statusz
	z.Queued, z.Running = s.pool.Depth()
	z.Sheds, z.Completed, z.Window = s.pool.Stats()
	z.CacheHits, z.CacheMisses, z.CacheEvictions, z.CacheSize = s.cache.Stats()
	cacheByTenant := s.cache.TenantStats()
	for _, snap := range s.pool.TenantSnapshots() {
		t := TenantStatus{TenantSnapshot: snap}
		if cs, ok := cacheByTenant[snap.Tenant]; ok {
			t.CacheHits, t.CacheEvictions = cs.Hits, cs.Evictions
			delete(cacheByTenant, snap.Tenant)
		}
		z.Tenants = append(z.Tenants, t)
	}
	// Tenants served purely from the shared cache never touch the
	// scheduler, but they are still load the operator wants attributed
	// — list them too, in a deterministic order.
	rest := make([]string, 0, len(cacheByTenant))
	for name := range cacheByTenant {
		rest = append(rest, name)
	}
	sort.Strings(rest)
	for _, name := range rest {
		cs := cacheByTenant[name]
		z.Tenants = append(z.Tenants, TenantStatus{
			TenantSnapshot: TenantSnapshot{Tenant: name},
			CacheHits:      cs.Hits, CacheEvictions: cs.Evictions,
		})
	}
	s.mu.Lock()
	z.Submits, z.Dedups, z.Recovered = s.stats.submits, s.stats.dedups, s.stats.recovered
	z.Draining = s.drain
	s.mu.Unlock()
	if s.journal != nil {
		h := s.journal.Health()
		z.Journal = &h
	}
	if s.ckpts != nil {
		cs := &CheckpointStatus{
			Dir: s.ckpts.Dir(), Retain: s.cfg.CheckpointRetain, Stats: s.ckpts.Stats(),
		}
		s.mu.Lock()
		ids := make([]string, 0, len(s.jobs))
		for id := range s.jobs {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		for _, id := range ids {
			j := s.jobs[id]
			if !j.Progress.Resumed.Load() {
				continue
			}
			cs.Resumed = append(cs.Resumed, ResumedJob{
				ID: j.ID, Tenant: j.Tenant, State: j.State().String(),
				ResumeEpoch:  j.Progress.ResumeEpoch.Load(),
				ResumeCycles: j.Progress.ResumeCycles.Load(),
				Checkpoints:  j.Progress.Checkpoints.Load(),
			})
		}
		s.mu.Unlock()
		z.Checkpoints = cs
	}
	return z
}

func (s *Server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Status())
}
