package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/mem"
	"repro/internal/net"
)

// ErrShed reports that admission control refused a job: the queue is at
// its bound or the AIMD window is closed. The request was not enqueued
// and cost no simulation work; the client should back off for the
// RetryAfter carried by the concrete *ShedError and resubmit.
var ErrShed = errors.New("serve: overloaded, job shed")

// ShedError is the concrete admission refusal: how loaded the service
// was and when to come back. It unwraps to ErrShed so callers
// discriminate with errors.Is. RetryAfter is derived from the refused
// tenant's own queue state and fair-share capacity, so one tenant's
// backlog never inflates another tenant's backoff.
type ShedError struct {
	Tenant     string        // tenant whose submit was refused
	Depth      int           // jobs queued or running at refusal
	Window     int           // current admission window (jobs)
	RetryAfter time.Duration // backoff hint, also the HTTP Retry-After
}

func (e *ShedError) Error() string {
	return fmt.Sprintf("serve: overloaded, job shed (tenant %s, depth %d, window %d, retry after %s)",
		e.Tenant, e.Depth, e.Window, e.RetryAfter)
}

func (e *ShedError) Unwrap() error { return ErrShed }

// ErrQuotaExceeded reports that a tenant hit one of its own quotas —
// queue depth or the refilling simulated-cycle budget — while the
// service as a whole may be idle. Like a shed it is surfaced as HTTP
// 429 + Retry-After, but the hint is computed from that tenant's quota
// state alone: other tenants are admitted normally while this one backs
// off, which is the whole point of per-tenant isolation.
var ErrQuotaExceeded = errors.New("serve: tenant quota exceeded")

// QuotaError is the concrete per-tenant refusal. Kind names the quota
// that tripped: "queue" (per-tenant queue depth) or "cycles" (the
// simulated-cycle budget is exhausted until it refills). It unwraps to
// ErrQuotaExceeded so callers discriminate with errors.Is.
type QuotaError struct {
	Tenant     string        // tenant whose quota tripped
	Kind       string        // "queue" or "cycles"
	Limit      int64         // the configured bound (jobs, or budget cycles)
	RetryAfter time.Duration // per-tenant backoff hint, also the HTTP Retry-After
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("serve: tenant %s quota exceeded (%s limit %d, retry after %s)",
		e.Tenant, e.Kind, e.Limit, e.RetryAfter)
}

func (e *QuotaError) Unwrap() error { return ErrQuotaExceeded }

// ErrJobDeadline reports that a job ran out of budget — simulated
// cycles (the engine Limit) or wall-clock time — and was canceled
// cleanly. The partial machine state is discarded; resubmitting with a
// larger budget may succeed, which distinguishes it from the
// deterministic verdicts below.
var ErrJobDeadline = errors.New("serve: job deadline exceeded")

// JobDeadlineError is the concrete budget expiry. Kind is "cycles" for
// a simulated-cycle budget and "wall" for a wall-clock one. It unwraps
// to ErrJobDeadline.
type JobDeadlineError struct {
	ID     string // job ID
	Kind   string // "cycles" or "wall"
	Budget int64  // the armed budget (cycles, or milliseconds for wall)
}

func (e *JobDeadlineError) Error() string {
	unit := "cycles"
	if e.Kind == "wall" {
		unit = "ms"
	}
	return fmt.Sprintf("serve: job %s deadline exceeded (%s budget %d %s)", e.ID, e.Kind, e.Budget, unit)
}

func (e *JobDeadlineError) Unwrap() error { return ErrJobDeadline }

// ErrJournalDegraded reports that the journal cannot reach stable
// storage: the fsync-before-ack contract cannot be honored, so new
// submits are refused (HTTP 503 + Retry-After) while cached results and
// already-acknowledged in-flight jobs keep being served. The heal loop
// probes the disk with backoff and re-arms when writes land again;
// clients retry with backoff, exactly like a shed.
var ErrJournalDegraded = errors.New("serve: journal degraded, durability unavailable")

// DegradedError is the concrete degraded-mode refusal with its backoff
// hint. It unwraps to ErrJournalDegraded so callers discriminate with
// errors.Is.
type DegradedError struct {
	RetryAfter time.Duration // backoff hint, also the HTTP Retry-After
}

func (e *DegradedError) Error() string {
	return fmt.Sprintf("serve: journal degraded, durability unavailable (retry after %s)", e.RetryAfter)
}

func (e *DegradedError) Unwrap() error { return ErrJournalDegraded }

// isDegraded is the short form used by the append retry loop.
func isDegraded(err error) bool { return errors.Is(err, ErrJournalDegraded) }

// ErrDraining reports that the server is shutting down and no longer
// admits work. Like a shed, the job was not accepted; unlike a shed,
// retrying against this instance will not succeed — clients should
// fail over. Surfaced as HTTP 503.
var ErrDraining = errors.New("serve: draining, not accepting jobs")

// ErrUnknownJob reports a status query for an ID the server has no
// record of: never submitted here, or a terminal job older than the
// server's window of recent ones, or finished before a restart.
var ErrUnknownJob = errors.New("serve: unknown job")

// HostError marks a host-side failure — journal or cache I/O, never a
// simulation verdict. Host failures are the only transient class in the
// service: the simulation is deterministic, so everything it reports
// would recur on retry, but a full disk or interrupted write may not.
type HostError struct {
	Op  string // what the host was doing ("journal append", ...)
	Err error
}

func (e *HostError) Error() string { return fmt.Sprintf("serve: host %s: %v", e.Op, e.Err) }

func (e *HostError) Unwrap() error { return e.Err }

// Class is the retry classification of a job failure.
type Class int

const (
	// ClassDeterministic: a simulation verdict (partition, poison,
	// deadlock, proc failure). Deterministic replay would reproduce it
	// bit for bit; the error IS the result. Never retried.
	ClassDeterministic Class = iota
	// ClassDeadline: a cycle or wall budget expired. Reported to the
	// client; a resubmission with a larger budget is the client's call.
	ClassDeadline
	// ClassTransient: a host-side failure (journal I/O, shed). Safe to
	// retry with exponential backoff; the worker retries journal
	// appends itself, clients retry sheds.
	ClassTransient
)

func (c Class) String() string {
	switch c {
	case ClassDeterministic:
		return "deterministic"
	case ClassDeadline:
		return "deadline"
	case ClassTransient:
		return "transient"
	}
	return fmt.Sprintf("Class(%d)", int(c))
}

// Classify maps a job failure onto the retry taxonomy. The
// discrimination is by sentinel (errors.Is / errors.As), mirroring the
// partition/poison discipline the errtaxonomy lint pass enforces inside
// the simulator.
func Classify(err error) Class {
	var host *HostError
	switch {
	case errors.Is(err, ErrJobDeadline):
		return ClassDeadline
	case errors.Is(err, ErrShed), errors.Is(err, ErrQuotaExceeded), errors.Is(err, ErrDraining),
		errors.Is(err, ErrJournalDegraded), errors.As(err, &host):
		return ClassTransient
	case errors.Is(err, net.ErrPartitioned), errors.Is(err, mem.ErrPoisoned):
		return ClassDeterministic
	}
	// Deadlock, livelock, proc failures, validation: all products of a
	// deterministic execution. Defaulting unknown errors here is the
	// safe side — a misclassified transient is retried by a human, a
	// misclassified deterministic error would be retried forever.
	return ClassDeterministic
}
