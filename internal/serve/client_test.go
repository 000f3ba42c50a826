package serve

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"path"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/hostfs"
)

func newTestClient(url string) (*Client, *[]time.Duration) {
	sleeps := &[]time.Duration{}
	c := NewClient(url)
	c.Backoff = time.Millisecond
	c.BackoffMax = 8 * time.Millisecond
	c.JitterSeed = 0xc11e47
	c.sleep = func(d time.Duration) { *sleeps = append(*sleeps, d) }
	return c, sleeps
}

// TestClientRun: submit, watch to completion, digest verified; a
// resubmit is served terminal straight from the cache.
func TestClientRun(t *testing.T) {
	spec := quickSpec(8100)
	want := referenceDigest(t, spec)
	s := newTestServer(t, Config{JournalPath: filepath.Join(t.TempDir(), "j.journal")})
	defer s.Drain(10 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c, _ := newTestClient(ts.URL)
	var snaps int32
	c.OnProgress = func(JobStatus) { atomic.AddInt32(&snaps, 1) }
	st, err := c.Run(spec, want)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if st.State != "done" || st.Result == nil || st.Result.Digest != want {
		t.Fatalf("Run result: %+v", st)
	}
	if atomic.LoadInt32(&snaps) == 0 {
		t.Fatal("no progress snapshots delivered")
	}

	// Digest mismatch is the client's own verdict, not the server's.
	if _, err := c.Run(spec, "0000000000000000"); !errors.Is(err, ErrDigestMismatch) {
		t.Fatalf("wrong expected digest: err = %v, want ErrDigestMismatch", err)
	}

	st2, err := c.Run(spec, want)
	if err != nil {
		t.Fatalf("cached Run: %v", err)
	}
	if st2.Result == nil || !st2.Result.Cached {
		t.Fatalf("resubmit not served from cache: %+v", st2)
	}

	// Validation failures are a permanent 400: no retries burned.
	c2, sleeps := newTestClient(ts.URL)
	if _, err := c2.Submit(JobSpec{App: "nonsense"}); err == nil || errors.Is(err, ErrClientGaveUp) {
		t.Fatalf("invalid spec err = %v, want a permanent failure", err)
	}
	if len(*sleeps) != 0 {
		t.Fatalf("client retried a permanent 400 (%d sleeps)", len(*sleeps))
	}
}

// TestClientRetryAfterFloor: the server's Retry-After hint is a floor
// on the backoff, and the jitter stream is deterministic per seed.
func TestClientRetryAfterFloor(t *testing.T) {
	var hits int32
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		if atomic.AddInt32(&hits, 1) <= 3 {
			w.Header().Set("Retry-After", "2")
			writeJSON(w, http.StatusServiceUnavailable, map[string]string{"error": "degraded"})
			return
		}
		writeJSON(w, http.StatusOK, JobStatus{ID: "j00000001", State: "done",
			Result: &JobResult{Digest: "abc"}})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, sleeps := newTestClient(ts.URL)
	st, err := c.Submit(quickSpec(1))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if st.ID != "j00000001" {
		t.Fatalf("status %+v", st)
	}
	if len(*sleeps) != 3 {
		t.Fatalf("slept %d times, want 3", len(*sleeps))
	}
	for i, d := range *sleeps {
		if d < 2*time.Second {
			t.Fatalf("sleep %d = %v ignored the 2s Retry-After floor", i, d)
		}
	}

	// Same seed, same schedule: the jitter is replayable.
	delays := func(seed uint64) []time.Duration {
		c := NewClient("")
		c.Backoff, c.BackoffMax, c.JitterSeed = time.Millisecond, 32*time.Millisecond, seed
		c.init()
		var out []time.Duration
		for i := 0; i < 6; i++ {
			out = append(out, c.retryDelay(i, 0))
		}
		return out
	}
	a, b := delays(7), delays(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter diverges at %d: %v vs %v", i, a[i], b[i])
		}
		if a[i] < time.Millisecond/2 {
			t.Fatalf("delay %d = %v below half the base backoff", i, a[i])
		}
	}
	if d := delays(8); d[0] == a[0] && d[1] == a[1] && d[2] == a[2] {
		t.Fatal("different jitter seeds produced an identical schedule")
	}
}

// TestClientGivesUp: a server that refuses forever exhausts the
// attempt budget with the sentinel.
func TestClientGivesUp(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusTooManyRequests, map[string]string{"error": "shed"})
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	c, sleeps := newTestClient(ts.URL)
	c.Attempts = 4
	if _, err := c.Submit(quickSpec(1)); !errors.Is(err, ErrClientGaveUp) {
		t.Fatalf("err = %v, want ErrClientGaveUp", err)
	}
	if len(*sleeps) != 4 {
		t.Fatalf("slept %d times, want 4", len(*sleeps))
	}
}

// TestClientRidesOutBrownout: the end-to-end degraded-mode story — the
// client keeps retrying through a dead-disk 503 brownout and completes
// the job once the journal heals, digest intact.
func TestClientRidesOutBrownout(t *testing.T) {
	spec := quickSpec(8200)
	want := referenceDigest(t, spec)
	fsys := hostfs.NewFault(hostfs.OS(), hostfs.FaultConfig{})
	s := newTestServer(t, Config{
		JournalPath: filepath.Join(t.TempDir(), "brown.journal"),
		FS:          fsys,
		HealBackoff: time.Millisecond,
		Pool:        PoolConfig{Workers: 1},
	})
	defer s.Drain(10 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fsys.SetBroken(hostfs.BrokenEIO)
	// Trip the journal into degraded mode.
	if _, err := s.Submit(quickSpec(8201)); !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("tripwire submit: %v", err)
	}

	c, _ := newTestClient(ts.URL)
	c.Attempts = 50
	var refused int32
	c.Logf = func(string, ...any) { atomic.AddInt32(&refused, 1) }
	// Heal the disk after the client has eaten a few 503s.
	origSleep := c.sleep
	c.sleep = func(d time.Duration) {
		origSleep(d)
		if atomic.LoadInt32(&refused) == 3 {
			fsys.Heal()
		}
		time.Sleep(time.Millisecond) // let the heal loop probe
	}
	st, err := c.Run(spec, want)
	if err != nil {
		t.Fatalf("Run through brownout: %v", err)
	}
	if st.State != "done" || st.Result.Digest != want {
		t.Fatalf("post-brownout result: %+v", st)
	}
	if atomic.LoadInt32(&refused) == 0 {
		t.Fatal("client never saw the brownout — test proved nothing")
	}
}

// beforeWatch is a transport that runs fn once, with the job ID, before
// the first ?watch=1 request goes out.
type beforeWatch struct {
	once sync.Once
	fn   func(id string)
}

func (b *beforeWatch) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Query().Get("watch") != "" {
		b.once.Do(func() { b.fn(path.Base(r.URL.Path)) })
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClientRunAfterWindowRollover: a job that finishes and ages out of
// the server's window of recent terminal jobs before the client's watch
// reaches it answers 404; Run resubmits once and gets the cached result.
func TestClientRunAfterWindowRollover(t *testing.T) {
	spec, filler := quickSpec(8400), quickSpec(8401)
	want := referenceDigest(t, spec)
	s := newTestServer(t, Config{Pool: PoolConfig{Workers: 1}})
	defer s.Drain(10 * time.Second)
	_, release := holdJobs(s, spec)
	defer release()
	warm, err := s.Submit(filler)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	awaitJob(t, warm)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	c, _ := newTestClient(ts.URL)
	watched := ""
	c.HTTP = &http.Client{Transport: &beforeWatch{fn: func(id string) {
		watched = id
		release()
		j, err := s.Job(id)
		if err != nil {
			t.Fatalf("job %s before the watch: %v", id, err)
		}
		awaitJob(t, j)
		for i := 0; i < terminalWindow; i++ {
			if _, err := s.Submit(filler); err != nil {
				t.Fatalf("filler hit: %v", err)
			}
		}
	}}}
	st, err := c.Run(spec, want)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if watched == "" {
		t.Fatal("Run never watched the job — test proved nothing")
	}
	if _, err := s.Job(watched); !errors.Is(err, ErrUnknownJob) {
		t.Fatalf("job %s still in the table: %v", watched, err)
	}
	if st.ID == watched || st.Result == nil || !st.Result.Cached || st.Result.Digest != want {
		t.Fatalf("Run after rollover: %+v, want a cache hit with digest %s under a new ID", st, want)
	}
}

// TestClientRunAfterRestart: a job that finishes just before a crash
// exists after restart only as a done record and a cache entry, so a
// watch that reaches the restarted server gets a 404; Run resubmits
// once and gets the result from the recovered cache.
func TestClientRunAfterRestart(t *testing.T) {
	spec := quickSpec(8500)
	want := referenceDigest(t, spec)
	journal := filepath.Join(t.TempDir(), "j.journal")
	s1 := newTestServer(t, Config{JournalPath: journal, Pool: PoolConfig{Workers: 1}})
	_, release := holdJobs(s1, spec)
	defer release()
	var front atomic.Pointer[Server]
	front.Store(s1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		front.Load().Handler().ServeHTTP(w, r)
	}))
	defer ts.Close()

	c, _ := newTestClient(ts.URL)
	var s2 *Server
	c.HTTP = &http.Client{Transport: &beforeWatch{fn: func(id string) {
		release()
		j, err := s1.Job(id)
		if err != nil {
			t.Fatalf("job %s before the watch: %v", id, err)
		}
		awaitJob(t, j) // done closes after the done record is durable
		s1.Kill()
		s2 = newTestServer(t, Config{JournalPath: journal, Pool: PoolConfig{Workers: 1}})
		front.Store(s2)
	}}}
	st, err := c.Run(spec, want)
	if s2 != nil {
		defer s2.Drain(10 * time.Second)
	}
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if s2 == nil {
		t.Fatal("Run never watched the job — test proved nothing")
	}
	if z := s2.Status(); z.Recovered != 0 {
		t.Fatalf("restart re-enqueued %d jobs, want none: the done record was durable", z.Recovered)
	}
	if st.Result == nil || !st.Result.Cached || st.Result.Digest != want {
		t.Fatalf("Run after restart: %+v, want a cache hit with digest %s", st, want)
	}
}
