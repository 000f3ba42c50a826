package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobStatus) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, st
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id)
	if err != nil {
		t.Fatalf("GET /jobs/%s: %v", id, err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

func pollDone(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := getStatus(t, ts, id)
		if st.State == "done" || st.State == "failed" {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobStatus{}
}

// TestHTTPSubmitAndStatus: the full wire round trip — submit, poll to
// done, digest matches the batch harness, duplicate returns 200 with
// the cached bits.
func TestHTTPSubmitAndStatus(t *testing.T) {
	spec := quickSpec(21)
	want := referenceDigest(t, spec)
	s := newTestServer(t, Config{})
	defer s.Drain(5 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	body := fmt.Sprintf(`{"app":"em3d","pes":2,"nodes_per_pe":8,"degree":2,"iters":1,"seed":%d}`, spec.Seed)
	resp, st := postJob(t, ts, body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if st.Key != KeyString(spec) {
		t.Errorf("wire key %s != canonical %s", st.Key, KeyString(spec))
	}
	final := pollDone(t, ts, st.ID)
	if final.State != "done" || final.Result == nil {
		t.Fatalf("terminal status %+v", final)
	}
	if final.Result.Digest != want {
		t.Fatalf("wire digest %s != batch digest %s", final.Result.Digest, want)
	}

	resp2, st2 := postJob(t, ts, body)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit status %d, want 200", resp2.StatusCode)
	}
	if st2.Result == nil || !st2.Result.Cached || st2.Result.Digest != want {
		t.Fatalf("duplicate not served from cache: %+v", st2.Result)
	}
}

// TestHTTPWatchStream: ?watch=1 streams NDJSON snapshots ending in the
// terminal state.
func TestHTTPWatchStream(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Drain(5 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	_, st := postJob(t, ts, `{"app":"em3d","pes":8,"seed":23}`)
	resp, err := http.Get(ts.URL + "/jobs/" + st.ID + "?watch=1")
	if err != nil {
		t.Fatalf("GET watch: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("watch content type %q", ct)
	}
	var states []JobStatus
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var snap JobStatus
		if err := json.Unmarshal(sc.Bytes(), &snap); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		states = append(states, snap)
	}
	if len(states) == 0 {
		t.Fatal("watch stream produced no snapshots")
	}
	last := states[len(states)-1]
	if last.State != "done" {
		t.Fatalf("stream ended in state %q: %+v", last.State, last)
	}
	// Progress must be monotone in cycles — the cycle-accurate feed.
	for i := 1; i < len(states); i++ {
		if states[i].Progress.Cycles < states[i-1].Progress.Cycles {
			t.Fatalf("progress went backwards: %+v -> %+v", states[i-1].Progress, states[i].Progress)
		}
	}
}

// TestHTTPErrors: the error surface — 400 on garbage, 404 on unknown
// IDs, 503 with Retry-After while draining.
func TestHTTPErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := postJob(t, ts, `{"app":"em3d","bogus_field":1}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown field: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJob(t, ts, `not json`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("garbage body: status %d, want 400", resp.StatusCode)
	}
	r404, err := http.Get(ts.URL + "/jobs/j99999999")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r404.StatusCode)
	}

	for _, path := range []string{"/healthz", "/readyz", "/statusz"} {
		r, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, r.StatusCode)
		}
	}

	if err := s.Drain(5 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	r503, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	r503.Body.Close()
	if r503.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining: status %d, want 503", r503.StatusCode)
	}
	if r503.Header.Get("Retry-After") == "" {
		t.Error("draining readyz missing Retry-After")
	}
	resp, _ = postJob(t, ts, `{"app":"em3d"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining: status %d, want 503", resp.StatusCode)
	}
}

// TestHTTPRefusesOverCapFaultPlan: a memory-fault plan too large to hold
// is refused with 400 before a job or a plan exists, while the largest
// plan the suite runs (TestServerDeterministicFaultResult's) is taken.
func TestHTTPRefusesOverCapFaultPlan(t *testing.T) {
	// 256 PEs × 100,000 flips per PE per Mcycle × the default 5M-cycle
	// horizon is 128M flips, tens of GB of schedule: Validate alone
	// must refuse it, since building it is what would fail.
	huge := JobSpec{PEs: 256, Fault: FaultSpec{MemFaultRate: 100000}}
	if err := huge.Validate(); err == nil || !strings.HasPrefix(err.Error(), "serve: fault: ") {
		t.Fatalf("Validate(%+v) = %v, want a serve: fault: refusal", huge.Fault, err)
	}
	taken := slowSpec(3)
	taken.Fault = FaultSpec{Seed: 5, MemFaultRate: 2000, MemMultiFrac: 1} // 80,000 flips
	if err := taken.Validate(); err != nil {
		t.Fatalf("the 80,000-flip spec was refused: %v", err)
	}

	s := newTestServer(t, Config{})
	defer s.Drain(5 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Just over the cap: 8 PEs × 3,300 × 5M cycles / 1e6 = 132,000 flips.
	resp, _ := postJob(t, ts, `{"pes":8,"fault":{"mem_fault_rate":3300}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("over-cap submit: status %d, want 400", resp.StatusCode)
	}
	if z := s.Status(); z.Jobs != 0 || z.Submits != 0 {
		t.Errorf("over-cap submit left %d jobs and %d submits, want none", z.Jobs, z.Submits)
	}
}

// TestHTTPRefusesOversizedBody: a POST /jobs body far past any real spec
// is refused with 413 instead of being buffered whole.
func TestHTTPRefusesOversizedBody(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Drain(5 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// One 128 KiB JSON string token.
	resp, _ := postJob(t, ts, `{"app":"`+strings.Repeat("x", 1<<17)+`"}`)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized submit: status %d, want 413", resp.StatusCode)
	}
	if z := s.Status(); z.Submits != 0 {
		t.Errorf("oversized submit counted %d submits, want none", z.Submits)
	}
}

// TestHTTPOverloadSheds: a concurrent burst of distinct jobs against a
// tiny pool must shed with 429 + a positive integer Retry-After, the
// in-system job count must stay within Workers+QueueDepth, and every
// accepted job must still finish.
func TestHTTPOverloadSheds(t *testing.T) {
	s := newTestServer(t, Config{Pool: PoolConfig{Workers: 1, QueueDepth: 2, RetryMin: time.Second}})
	defer s.Drain(60 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const burst = 12
	type outcome struct {
		code       int
		id         string
		retryAfter string
	}
	results := make(chan outcome, burst)
	for i := 0; i < burst; i++ {
		go func(seed int64) {
			body := fmt.Sprintf(`{"app":"em3d","pes":8,"nodes_per_pe":120,"degree":8,"iters":2,"seed":%d}`, seed)
			resp, st := postJob(t, ts, body)
			results <- outcome{resp.StatusCode, st.ID, resp.Header.Get("Retry-After")}
		}(int64(100 + i))
	}
	var accepted []string
	sheds := 0
	for i := 0; i < burst; i++ {
		o := <-results
		switch o.code {
		case http.StatusAccepted, http.StatusOK:
			accepted = append(accepted, o.id)
		case http.StatusTooManyRequests:
			sheds++
			if ra, err := strconv.Atoi(o.retryAfter); err != nil || ra < 1 {
				t.Errorf("429 Retry-After %q, want positive integer seconds", o.retryAfter)
			}
		default:
			t.Errorf("burst submit: status %d", o.code)
		}
	}
	if sheds == 0 {
		t.Fatal("no sheds under a concurrent 12-job burst at capacity 3")
	}
	if len(accepted) == 0 {
		t.Fatal("everything shed; admission window wedged shut")
	}
	// The system never holds more than Workers+QueueDepth jobs.
	if q, r := s.pool.Depth(); q+r > 3 {
		t.Errorf("in-system %d jobs, bound is 3", q+r)
	}
	for _, id := range accepted {
		if st := pollDone(t, ts, id); st.State != "done" {
			t.Errorf("accepted job %s ended %q (%s)", id, st.State, st.Error)
		}
	}
	var z Statusz
	zr, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(zr.Body).Decode(&z); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	zr.Body.Close()
	if z.Sheds != int64(sheds) {
		t.Errorf("statusz sheds %d, want %d", z.Sheds, sheds)
	}
	if z.Completed != int64(len(accepted)) {
		t.Errorf("statusz completed %d, want %d", z.Completed, len(accepted))
	}
}

// TestHTTPRetryAfterHonored: a client that backs off per the hint
// eventually gets everything through — the AIMD contract from the
// client's side.
func TestHTTPRetryAfterHonored(t *testing.T) {
	s := newTestServer(t, Config{Pool: PoolConfig{Workers: 2, QueueDepth: 2, RetryMin: time.Millisecond}})
	defer s.Drain(30 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 8; i++ {
		body := fmt.Sprintf(`{"app":"em3d","pes":2,"nodes_per_pe":8,"degree":2,"iters":1,"seed":%d}`, 200+i)
		admitBy := time.Now().Add(60 * time.Second)
		for {
			resp, st := postJob(t, ts, body)
			if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
				ids = append(ids, st.ID)
				break
			}
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("submit %d: status %d", i, resp.StatusCode)
			}
			if time.Now().After(admitBy) {
				t.Fatalf("job %d never admitted", i)
			}
			time.Sleep(2 * time.Millisecond) // honor the (scaled-down) hint
		}
	}
	for _, id := range ids {
		if st := pollDone(t, ts, id); st.State != "done" {
			t.Errorf("job %s ended %q (%s)", id, st.State, st.Error)
		}
	}
}
