package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/fault"
)

// ErrClientGaveUp reports that the client exhausted its transient-retry
// budget — every attempt was refused (shed, degraded, draining) or
// failed in transport. The last underlying error is wrapped alongside.
var ErrClientGaveUp = errors.New("serve: client retries exhausted")

// ErrDigestMismatch reports that a finished job's digest differs from
// the expected one — a determinism violation, the one result this
// client exists to catch.
var ErrDigestMismatch = errors.New("serve: digest mismatch")

// Client is the retrying HTTP client for the simulation service. It
// submits specs, follows the NDJSON progress stream, and absorbs the
// service's transient refusals — 429 sheds, 503 brownouts, dropped
// connections — with deterministic jittered exponential backoff that
// honors Retry-After. The jitter draws from the same seeded splitmix64
// core as every other randomized component, so a client run replays
// its exact retry schedule from JitterSeed.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8023".
	BaseURL string
	// Tenant, when set, rides every submit as the X-T3D-Tenant header
	// (a tenant already named in the spec body wins on the server).
	Tenant string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// Attempts bounds transient retries per operation (default 10).
	Attempts int
	// Backoff is the initial retry delay (default 250ms), doubling per
	// attempt to BackoffMax (default 10s), jittered into [d/2, d).
	Backoff    time.Duration
	BackoffMax time.Duration
	// JitterSeed seeds the deterministic jitter stream.
	JitterSeed uint64
	// OnProgress, if non-nil, receives every status snapshot the watch
	// stream emits (the CLI renders these as progress lines).
	OnProgress func(JobStatus)
	// Logf, if non-nil, receives one line per retry decision.
	Logf func(format string, args ...any)

	rng   *fault.Rand
	sleep func(time.Duration) // test seam
}

// NewClient returns a client for the service at baseURL with defaults.
func NewClient(baseURL string) *Client { return &Client{BaseURL: baseURL} }

func (c *Client) init() {
	if c.HTTP == nil {
		c.HTTP = http.DefaultClient
	}
	if c.Attempts <= 0 {
		c.Attempts = 10
	}
	if c.Backoff <= 0 {
		c.Backoff = 250 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 10 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.rng == nil {
		c.rng = &fault.Rand{State: c.JitterSeed}
	}
	if c.sleep == nil {
		c.sleep = time.Sleep
	}
}

// Terminal reports whether the status is final.
func (st JobStatus) Terminal() bool {
	return st.State == StateDone.String() || st.State == StateFailed.String()
}

// retryDelay computes the attempt'th backoff: exponential, capped,
// jittered into [d/2, d), then raised to the server's Retry-After hint
// when that is longer — the hint is a floor, not a suggestion.
func (c *Client) retryDelay(attempt int, retryAfter time.Duration) time.Duration {
	d := c.Backoff << attempt
	if d > c.BackoffMax || d <= 0 {
		d = c.BackoffMax
	}
	d = d/2 + time.Duration(c.rng.Float()*float64(d/2))
	if retryAfter > d {
		d = retryAfter
	}
	return d
}

// transientStatus reports whether an HTTP status is a retriable refusal.
func transientStatus(code int) bool {
	return code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable ||
		code == http.StatusInternalServerError
}

func retryAfterOf(resp *http.Response) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return 0
}

func apiError(resp *http.Response, body []byte) error {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, resp.StatusCode)
	}
	return fmt.Errorf("server: HTTP %d", resp.StatusCode)
}

// Submit posts one spec, retrying transient refusals. The returned
// status may already be terminal (cache hit on the server).
func (c *Client) Submit(spec JobSpec) (JobStatus, error) {
	c.init()
	body, err := json.Marshal(spec)
	if err != nil {
		return JobStatus{}, err
	}
	var last error
	for attempt := 0; attempt < c.Attempts; attempt++ {
		req, err := http.NewRequest(http.MethodPost, c.BaseURL+"/jobs", bytes.NewReader(body))
		if err != nil {
			return JobStatus{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		if c.Tenant != "" {
			req.Header.Set("X-T3D-Tenant", c.Tenant)
		}
		resp, err := c.HTTP.Do(req)
		if err != nil {
			last = err
			c.backoffFor(attempt, 0, "submit", err)
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			last = rerr
			c.backoffFor(attempt, 0, "submit", rerr)
			continue
		}
		switch {
		case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return JobStatus{}, fmt.Errorf("serve: client: bad submit response: %w", err)
			}
			return st, nil
		case transientStatus(resp.StatusCode):
			last = apiError(resp, data)
			c.backoffFor(attempt, retryAfterOf(resp), "submit", last)
		default:
			return JobStatus{}, apiError(resp, data)
		}
	}
	return JobStatus{}, fmt.Errorf("%w after %d attempts: %v", ErrClientGaveUp, c.Attempts, last)
}

func (c *Client) backoffFor(attempt int, retryAfter time.Duration, op string, cause error) {
	d := c.retryDelay(attempt, retryAfter)
	c.Logf("t3dclient: %s attempt %d: %v — retrying in %s", op, attempt+1, cause, d)
	c.sleep(d)
}

// Status fetches one status snapshot.
func (c *Client) Status(id string) (JobStatus, error) {
	c.init()
	var last error
	for attempt := 0; attempt < c.Attempts; attempt++ {
		resp, err := c.HTTP.Get(c.BaseURL + "/jobs/" + id)
		if err != nil {
			last = err
			c.backoffFor(attempt, 0, "status", err)
			continue
		}
		data, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			last = rerr
			c.backoffFor(attempt, 0, "status", rerr)
			continue
		}
		if resp.StatusCode == http.StatusOK {
			var st JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return JobStatus{}, fmt.Errorf("serve: client: bad status response: %w", err)
			}
			return st, nil
		}
		if !transientStatus(resp.StatusCode) {
			return JobStatus{}, apiError(resp, data)
		}
		last = apiError(resp, data)
		c.backoffFor(attempt, retryAfterOf(resp), "status", last)
	}
	return JobStatus{}, fmt.Errorf("%w after %d attempts: %v", ErrClientGaveUp, c.Attempts, last)
}

// Watch follows the job's NDJSON progress stream until it is terminal,
// reconnecting (with backoff) when the stream drops mid-run. Every
// decoded snapshot goes to OnProgress. An ID the server does not hold
// fails at once with ErrUnknownJob.
func (c *Client) Watch(id string) (JobStatus, error) {
	c.init()
	var last error
	for attempt := 0; attempt < c.Attempts; attempt++ {
		st, progressed, err := c.watchOnce(id)
		if err == nil {
			return st, nil
		}
		if progressed {
			// The stream was live before it dropped; a reconnect is a
			// fresh outage, not the same one compounding.
			attempt = 0
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return JobStatus{}, perm.err
		}
		last = err
		c.backoffFor(attempt, 0, "watch", err)
	}
	return JobStatus{}, fmt.Errorf("%w after %d attempts: %v", ErrClientGaveUp, c.Attempts, last)
}

// permanentError marks a watch failure that reconnecting cannot fix.
type permanentError struct{ err error }

func (e *permanentError) Error() string { return e.err.Error() }

// watchOnce is one stream attempt. progressed reports whether at least
// one snapshot was decoded before the failure.
func (c *Client) watchOnce(id string) (st JobStatus, progressed bool, err error) {
	resp, err := c.HTTP.Get(c.BaseURL + "/jobs/" + id + "?watch=1")
	if err != nil {
		return JobStatus{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		aerr := apiError(resp, data)
		if transientStatus(resp.StatusCode) {
			return JobStatus{}, false, aerr
		}
		if resp.StatusCode == http.StatusNotFound {
			aerr = fmt.Errorf("%w: %q", ErrUnknownJob, id)
		}
		return JobStatus{}, false, &permanentError{err: aerr}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if err := json.Unmarshal(line, &st); err != nil {
			return JobStatus{}, progressed, fmt.Errorf("serve: client: bad watch line: %w", err)
		}
		progressed = true
		if c.OnProgress != nil {
			c.OnProgress(st)
		}
		if st.Terminal() {
			return st, true, nil
		}
	}
	if err := sc.Err(); err != nil {
		return JobStatus{}, progressed, err
	}
	return JobStatus{}, progressed, fmt.Errorf("serve: client: watch stream ended before job %s was terminal", id)
}

// Run is the full client flow: submit (with retries), then follow the
// job to completion. expectDigest, when non-empty, is verified against
// the final result; a mismatch is ErrDigestMismatch — the bit-identity
// contract, enforced from the outside.
//
// A 404 mid-watch means the job finished and left the server's job
// table: it aged out of the window of recent terminal jobs, or finished
// just before a restart. Its result lives on in the cache and the
// journal, so Run submits the spec once more and returns that answer: a
// cache hit, or a deterministic re-run to the same digest.
func (c *Client) Run(spec JobSpec, expectDigest string) (JobStatus, error) {
	st, err := c.follow(spec)
	if errors.Is(err, ErrUnknownJob) {
		c.Logf("t3dclient: %v — resubmitting", err)
		st, err = c.follow(spec)
	}
	if err != nil {
		return st, err
	}
	if st.State == StateDone.String() && expectDigest != "" && st.Result != nil && st.Result.Digest != expectDigest {
		return st, fmt.Errorf("%w: got %s, want %s", ErrDigestMismatch, st.Result.Digest, expectDigest)
	}
	return st, nil
}

// follow submits spec and watches the job until it is terminal.
func (c *Client) follow(spec JobSpec) (JobStatus, error) {
	st, err := c.Submit(spec)
	if err != nil {
		return st, err
	}
	if !st.Terminal() {
		return c.Watch(st.ID)
	}
	// Cache hit: done before the watch could start. The watch path
	// reports terminal snapshots itself.
	if c.OnProgress != nil {
		c.OnProgress(st)
	}
	return st, nil
}
