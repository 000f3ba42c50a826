package serve

import (
	"sync"
	"sync/atomic"
	"time"
)

// JobState is the lifecycle of a job inside the service.
type JobState int32

const (
	StateQueued JobState = iota
	StateRunning
	StateDone
	StateFailed
)

func (s JobState) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	}
	return "unknown"
}

// Job is one admitted simulation request and its live status. Status
// handlers read state/progress concurrently with the worker, hence the
// atomics; Result/Err are written exactly once, before done closes.
type Job struct {
	ID     string
	Key    uint64
	Tenant string // normalized tenant name ("" = the default tenant)
	Spec   JobSpec

	Progress Progress
	state    atomic.Int32

	// Terminal outcome: valid after done is closed.
	Result JobResult
	Err    string
	Class  string
	terr   error // the structured terminal error behind Err
	done   chan struct{}

	enqueuedAt   time.Time
	queueWait    time.Duration // set at dequeue, read after done closes
	wallDeadline time.Time     // zero = no wall budget
	aborted      atomic.Bool   // drain/cancel request, polled by the run
	recovered    bool          // journal-replayed job: bypasses admission

	// resume is the job's journal-vouched checkpoint ladder, newest
	// first — populated at replay from checkpointed records, consumed by
	// the worker's ckptRun to cut the re-executed work to at most one
	// checkpoint interval (plus whatever the ladder had to skip).
	resume []ckptRef
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState { return JobState(j.state.Load()) }

// Done exposes the completion channel (closed at terminal state).
func (j *Job) Done() <-chan struct{} { return j.done }

// QueueWait is how long the job sat queued before a worker picked it up
// — the per-tenant isolation metric the noisy-neighbor soak bounds.
// Valid once the job has started (and certainly after Done closes).
func (j *Job) QueueWait() time.Duration { return j.queueWait }

// TerminalError returns the structured failure (nil if the job
// succeeded or is not yet terminal). Callers discriminate with
// errors.Is against ErrJobDeadline and the simulation sentinels.
func (j *Job) TerminalError() error {
	select {
	case <-j.done:
		return j.terr
	default:
		return nil
	}
}

// TenantConfig is one tenant's scheduling weight and quotas. The zero
// value is the open default: weight 1, no per-tenant queue bound beyond
// the pool's global one, no concurrency cap, no cycle metering.
type TenantConfig struct {
	// Weight is the DRR quantum: per scheduling round a tenant with
	// weight w dequeues up to w jobs while backlogged. Default 1.
	Weight int
	// MaxConcurrent caps the tenant's running jobs (0 = no cap).
	// Enforced by the scheduler: a capped tenant's jobs wait in its own
	// queue while other tenants' jobs run.
	MaxConcurrent int
	// MaxQueue caps the tenant's queued jobs (0 = no per-tenant cap;
	// the pool's global QueueDepth still applies). Submits past it are
	// refused with *QuotaError kind "queue".
	MaxQueue int
	// CycleBudget is a refilling token bucket of simulated cycles
	// (0 = unmetered). Completed jobs are charged their actual cycles;
	// the balance may go negative mid-job, and while it is not positive
	// new submits are refused with *QuotaError kind "cycles". Admission
	// also reserves the tenant's recent per-job cycle estimate for every
	// job it already has queued or running, so a burst buffered in the
	// queue cannot spend the same balance twice before the charges land.
	CycleBudget int64
	// CycleRefill is the refill rate in simulated cycles per wall
	// second (default: CycleBudget per second when metering is on).
	CycleRefill int64
}

func (c TenantConfig) withDefaults() TenantConfig {
	if c.Weight <= 0 {
		c.Weight = 1
	}
	if c.MaxConcurrent < 0 {
		c.MaxConcurrent = 0
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.CycleBudget > 0 && c.CycleRefill <= 0 {
		c.CycleRefill = c.CycleBudget
	}
	return c
}

// PoolConfig tunes the worker pool and its admission control.
type PoolConfig struct {
	Workers    int           // concurrent simulations (default 2)
	QueueDepth int           // hard bound on total waiting jobs (default 64)
	TargetWait time.Duration // queueing-delay target driving AIMD (default 2s)
	RetryMin   time.Duration // floor for the shed Retry-After hint (default 1s)

	// Tenants holds per-tenant weight/quota overrides by name; tenants
	// not present get the zero config (weight 1, no quotas), which
	// shares one FIFO bounded only by the global limits.
	Tenants map[string]TenantConfig

	// now is the injectable clock (tests drive admission decisions
	// deterministically); nil means time.Now.
	now func() time.Time
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.TargetWait <= 0 {
		c.TargetWait = 2 * time.Second
	}
	if c.RetryMin <= 0 {
		c.RetryMin = time.Second
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// tenantState is one tenant's live scheduling state: its queue, its DRR
// deficit, its quota counters. Guarded by Pool.mu.
type tenantState struct {
	name    string
	cfg     TenantConfig
	queue   []*Job
	running int
	deficit int // DRR credit, in jobs; replenished by Weight per round

	// Simulated-cycle token bucket (active when cfg.CycleBudget > 0).
	balance    int64
	lastRefill time.Time
	// estCycles is an EWMA of the cycles charged per job — the admission
	// reservation for work in flight but not yet charged. Zero until the
	// first charge: a tenant with no history is not reserved against.
	estCycles float64

	sheds      int64 // refusals charged to this tenant (quota + overload)
	admitted   int64
	dequeues   int64
	completed  int64
	cyclesUsed int64
}

func (t *tenantState) weight() int { return t.cfg.Weight }

// dispatchable reports whether the scheduler may start a job for t.
func (t *tenantState) dispatchable() bool {
	if len(t.queue) == 0 {
		return false
	}
	return t.cfg.MaxConcurrent <= 0 || t.running < t.cfg.MaxConcurrent
}

// TenantSnapshot is one tenant's observable scheduling state, exposed
// on /statusz so operators can tell who is loading the service and
// whose quotas are biting.
type TenantSnapshot struct {
	Tenant       string `json:"tenant"`
	Weight       int    `json:"weight"`
	Queued       int    `json:"queued"`
	Running      int    `json:"running"`
	Admitted     int64  `json:"admitted"`
	Dequeues     int64  `json:"dequeues"`
	Completed    int64  `json:"completed"`
	Sheds        int64  `json:"sheds"`
	CyclesUsed   int64  `json:"cycles_used"`
	CycleBudget  int64  `json:"cycle_budget,omitempty"`
	CycleBalance int64  `json:"cycle_balance,omitempty"`
}

// Pool is the bounded worker pool with per-tenant isolation on top of
// AIMD admission control. Each tenant has its own FIFO queue; workers
// pull from the queues by deficit round-robin (DRR), so over any
// saturated interval tenant dequeue counts converge to the configured
// weight ratio and one tenant's backlog cannot starve another's. The
// global AIMD window still bounds total jobs in the system (queued +
// running), growing additively while dequeued jobs started within the
// TargetWait budget and halving when queueing delay blows past it —
// but refusals now carry a Retry-After derived from the refused
// tenant's own queue and fair share, and per-tenant quotas (queue
// depth, concurrency, simulated-cycle budget) are checked before the
// global window so a tenant at quota is refused with *QuotaError even
// on an idle service.
type Pool struct {
	cfg PoolConfig
	run func(*Job)

	mu        sync.Mutex
	cond      *sync.Cond
	tenants   map[string]*tenantState
	ring      []*tenantState // DRR order: first-seen order, deterministic
	rrIdx     int            // ring position of the tenant served last
	queued    int            // total queued across tenants
	running   int            // total running
	window    float64
	ewmaMS    float64 // EWMA of per-job service wall time
	draining  bool
	closed    bool
	wg        sync.WaitGroup
	sheds     int64
	completed int64
}

// NewPool starts cfg.Workers workers that execute run for each admitted
// job. run must mark the job terminal (the server's worker does).
func NewPool(cfg PoolConfig, run func(*Job)) *Pool {
	p := &Pool{cfg: cfg.withDefaults(), run: run, tenants: make(map[string]*tenantState)}
	p.cond = sync.NewCond(&p.mu)
	p.window = float64(p.cfg.Workers)
	for i := 0; i < p.cfg.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	return p
}

// tenantLocked returns (creating on first sight) the state for name.
// Creation order fixes the DRR ring order, which keeps scheduling
// deterministic for a deterministic arrival order.
func (p *Pool) tenantLocked(name string) *tenantState {
	if name == "" {
		name = DefaultTenant
	}
	if t, ok := p.tenants[name]; ok {
		return t
	}
	t := &tenantState{name: name, cfg: p.cfg.Tenants[name].withDefaults()}
	p.tenants[name] = t
	p.ring = append(p.ring, t)
	return t
}

// refillLocked tops up t's cycle bucket for the wall time elapsed since
// the last refill, capped at the budget. Fractional refills are never
// lost: lastRefill only advances when whole cycles land.
func (p *Pool) refillLocked(t *tenantState) {
	if t.cfg.CycleBudget <= 0 {
		return
	}
	now := p.cfg.now()
	if t.lastRefill.IsZero() {
		t.lastRefill = now
		t.balance = t.cfg.CycleBudget
		return
	}
	elapsed := now.Sub(t.lastRefill)
	if elapsed <= 0 {
		return
	}
	add := int64(float64(t.cfg.CycleRefill) * elapsed.Seconds())
	if add <= 0 {
		return
	}
	t.balance += add
	if t.balance > t.cfg.CycleBudget {
		t.balance = t.cfg.CycleBudget
	}
	t.lastRefill = now
}

// Submit admits or sheds a job for its tenant. Per-tenant quota
// refusals return *QuotaError, global overload returns *ShedError
// (both 429), a draining pool returns ErrDraining (503). Admitted jobs
// join their tenant's FIFO queue and are scheduled by DRR.
func (p *Pool) Submit(j *Job) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.draining || p.closed {
		return ErrDraining
	}
	t := p.tenantLocked(j.Tenant)
	if !j.recovered {
		// Per-tenant quotas first: a tenant at quota is refused with its
		// own Retry-After even when the service has room for others.
		p.refillLocked(t)
		if t.cfg.CycleBudget > 0 {
			// Reserve the estimated cost of work already in flight:
			// charges land at completion, so without the reservation a
			// tenant could stack MaxQueue+MaxConcurrent jobs against the
			// same balance every refill window.
			reserve := int64(t.estCycles * float64(len(t.queue)+t.running))
			if t.balance <= reserve {
				t.sheds++
				p.sheds++
				return &QuotaError{Tenant: t.name, Kind: "cycles", Limit: t.cfg.CycleBudget,
					RetryAfter: p.cycleRetryLocked(t, reserve)}
			}
		}
		if t.cfg.MaxQueue > 0 && len(t.queue) >= t.cfg.MaxQueue {
			t.sheds++
			p.sheds++
			return &QuotaError{Tenant: t.name, Kind: "queue", Limit: int64(t.cfg.MaxQueue),
				RetryAfter: p.retryAfterLocked(t)}
		}
		// Global overload: the AIMD window and the hard queue bound.
		// Admission is weighted-fair: a tenant below its share of the
		// window is admitted even when other tenants hold the window
		// full — otherwise a 1 ms-loop flooder wins every slot the
		// window opens and a polite tenant starves at the front door.
		// Only the hard QueueDepth bound overrides the share guarantee.
		inSystem := p.queued + p.running
		limit := int(p.window)
		if max := p.cfg.Workers + p.cfg.QueueDepth; limit > max {
			limit = max
		}
		tenantIn := len(t.queue) + t.running
		if (inSystem >= limit && tenantIn >= p.fairShareLocked(t, limit)) ||
			p.queued >= p.cfg.QueueDepth {
			t.sheds++
			p.sheds++
			return &ShedError{Tenant: t.name, Depth: inSystem, Window: limit,
				RetryAfter: p.retryAfterLocked(t)}
		}
	}
	j.enqueuedAt = p.cfg.now()
	t.queue = append(t.queue, j)
	t.admitted++
	p.queued++
	p.cond.Signal()
	return nil
}

// fairShareLocked is t's guaranteed slice of the admission window:
// limit split by the weights of the tenants currently competing (t
// always counts itself), never below one job. With a single tenant the
// share equals the whole window, so pre-tenant admission behavior is
// unchanged.
func (p *Pool) fairShareLocked(t *tenantState, limit int) int {
	wsum := t.weight()
	for _, u := range p.ring {
		if u != t && (len(u.queue) > 0 || u.running > 0) {
			wsum += u.weight()
		}
	}
	share := limit * t.weight() / wsum
	if share < 1 {
		share = 1
	}
	return share
}

// retryAfterLocked estimates when a refused tenant should come back:
// its own backlog drained at its fair share of the observed service
// rate, floored at RetryMin. A tenant with an empty queue gets the
// floor even while another tenant's flood has the global window shut —
// the per-tenant Retry-After contract.
func (p *Pool) retryAfterLocked(t *tenantState) time.Duration {
	perJob := time.Duration(p.ewmaMS) * time.Millisecond
	if perJob <= 0 {
		perJob = p.cfg.RetryMin
	}
	// Fair share: t's weight over the weights of every tenant currently
	// competing for workers (t always counts itself — it is submitting).
	wsum := t.weight()
	for _, u := range p.ring {
		if u != t && (len(u.queue) > 0 || u.running > 0) {
			wsum += u.weight()
		}
	}
	eff := float64(p.cfg.Workers) * float64(t.weight()) / float64(wsum)
	if eff <= 0 {
		eff = 1
	}
	est := time.Duration(float64(len(t.queue)+1) * float64(perJob) / eff)
	if est < p.cfg.RetryMin {
		est = p.cfg.RetryMin
	}
	return est
}

// cycleRetryLocked estimates when t's cycle balance clears the given
// in-flight reservation at its refill rate, floored at RetryMin.
func (p *Pool) cycleRetryLocked(t *tenantState, reserve int64) time.Duration {
	need := reserve + 1 - t.balance // cycles until balance > reserve
	if need <= 0 || t.cfg.CycleRefill <= 0 {
		return p.cfg.RetryMin
	}
	est := time.Duration(float64(need) / float64(t.cfg.CycleRefill) * float64(time.Second))
	if est < p.cfg.RetryMin {
		est = p.cfg.RetryMin
	}
	return est
}

// nextLocked is the DRR scheduler: pick the next job to run, or nil if
// nothing is dispatchable (empty queues, or every backlogged tenant is
// at its concurrency cap). Sweep the ring spending existing deficits;
// if nothing dispatches, start a new round — every backlogged,
// uncapped tenant banks Weight more credit, idle tenants forfeit
// theirs — and sweep once more. The served tenant keeps the ring
// position, so it continues spending its quantum before the pointer
// moves on: classic DRR bursting, bounded by the weight.
func (p *Pool) nextLocked() (*Job, *tenantState) {
	n := len(p.ring)
	if n == 0 || p.queued == 0 {
		return nil, nil
	}
	for sweep := 0; sweep < 2; sweep++ {
		for i := 0; i < n; i++ {
			idx := (p.rrIdx + i) % n
			t := p.ring[idx]
			if !t.dispatchable() || t.deficit < 1 {
				continue
			}
			t.deficit--
			p.rrIdx = idx
			j := t.queue[0]
			t.queue = t.queue[1:]
			p.queued--
			t.running++
			p.running++
			t.dequeues++
			return j, t
		}
		if sweep == 0 {
			for _, t := range p.ring {
				switch {
				case t.dispatchable():
					t.deficit += t.weight()
				case len(t.queue) == 0:
					// An idle tenant banks no credit: DRR fairness is
					// over backlogged intervals, not a grudge ledger.
					t.deficit = 0
				}
			}
		}
	}
	return nil, nil
}

func (p *Pool) worker() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		var j *Job
		var t *tenantState
		for {
			j, t = p.nextLocked()
			if j != nil || p.closed {
				break
			}
			p.cond.Wait()
		}
		if j == nil {
			// Closed. Concurrency-capped leftovers still drain: every
			// job completion broadcasts, re-running nextLocked above.
			if p.queued > 0 && p.running > 0 {
				p.cond.Wait()
				p.mu.Unlock()
				continue
			}
			p.mu.Unlock()
			return
		}
		// AIMD update on the observed queueing delay of this dequeue.
		j.queueWait = p.cfg.now().Sub(j.enqueuedAt)
		if j.queueWait > p.cfg.TargetWait {
			p.window /= 2
			if floor := float64(p.cfg.Workers); p.window < floor {
				p.window = floor
			}
		} else {
			p.window += 1 / p.window
			if max := float64(p.cfg.Workers + p.cfg.QueueDepth); p.window > max {
				p.window = max
			}
		}
		p.mu.Unlock()

		start := p.cfg.now()
		p.run(j)

		p.mu.Lock()
		t.running--
		p.running--
		t.completed++
		p.completed++
		ms := float64(p.cfg.now().Sub(start)) / float64(time.Millisecond)
		if p.ewmaMS == 0 {
			p.ewmaMS = ms
		} else {
			p.ewmaMS = 0.8*p.ewmaMS + 0.2*ms
		}
		p.cond.Broadcast() // wake drain waiters, idle workers, capped tenants
		p.mu.Unlock()
	}
}

// ChargeCycles debits tenant's simulated-cycle bucket for work actually
// performed. The balance may go negative — budget exhaustion mid-job is
// allowed, further admissions are not — which is what the quota tests
// pin down.
func (p *Pool) ChargeCycles(tenant string, cycles int64) {
	if cycles <= 0 {
		return
	}
	p.mu.Lock()
	t := p.tenantLocked(tenant)
	t.cyclesUsed += cycles
	if t.cfg.CycleBudget > 0 {
		p.refillLocked(t)
		t.balance -= cycles
		// Fold the charge into the per-job estimate admission reserves
		// for in-flight work (plain average on first charge).
		if t.estCycles == 0 {
			t.estCycles = float64(cycles)
		} else {
			t.estCycles = 0.5*t.estCycles + 0.5*float64(cycles)
		}
	}
	p.mu.Unlock()
}

// Enqueue bypasses admission for journal-recovered jobs: acknowledged
// work is re-run even if the instant load would shed or quota-refuse a
// fresh request. The job still lands in its tenant's queue, so replay
// competes fairly once running.
func (p *Pool) Enqueue(j *Job) {
	j.recovered = true
	p.mu.Lock()
	t := p.tenantLocked(j.Tenant)
	j.enqueuedAt = p.cfg.now()
	t.queue = append(t.queue, j)
	t.admitted++
	p.queued++
	p.cond.Signal()
	p.mu.Unlock()
}

// Depth reports (queued, running) across all tenants.
func (p *Pool) Depth() (queued, running int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued, p.running
}

// Stats reports (sheds, completed, admission window) across all
// tenants.
func (p *Pool) Stats() (sheds, completed int64, window int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sheds, p.completed, int(p.window)
}

// TenantSnapshots returns every tenant's scheduling state in ring
// (first-seen) order. Cycle balances are refreshed first so the
// snapshot reflects refills earned while idle.
func (p *Pool) TenantSnapshots() []TenantSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]TenantSnapshot, 0, len(p.ring))
	for _, t := range p.ring {
		p.refillLocked(t)
		out = append(out, TenantSnapshot{
			Tenant:       t.name,
			Weight:       t.weight(),
			Queued:       len(t.queue),
			Running:      t.running,
			Admitted:     t.admitted,
			Dequeues:     t.dequeues,
			Completed:    t.completed,
			Sheds:        t.sheds,
			CyclesUsed:   t.cyclesUsed,
			CycleBudget:  t.cfg.CycleBudget,
			CycleBalance: t.balance,
		})
	}
	return out
}

// SetDraining stops admission (Submit returns ErrDraining) without
// touching queued or running work.
func (p *Pool) SetDraining() {
	p.mu.Lock()
	p.draining = true
	p.mu.Unlock()
}

// Idle reports whether no work is queued or running.
func (p *Pool) Idle() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.queued == 0 && p.running == 0
}

// Stop shuts the workers down after the queues drain. Callers wanting a
// bounded stop abort running jobs first (Job.aborted) and SetDraining
// so nothing new arrives.
func (p *Pool) Stop() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	p.wg.Wait()
}
