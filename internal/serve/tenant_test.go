package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// submitTenant builds a minimal admitted job for a tenant.
func tenantJob(tenant string) *Job {
	return &Job{Tenant: tenant, done: make(chan struct{})}
}

// TestPoolDRRFairness: with weights 1:1:2 and every tenant saturating
// its queue, a single worker's dequeue counts converge to the weight
// ratio within one round's tolerance — the scheduler-level isolation
// invariant. The load is pre-enqueued and the worker is gated, so the
// dispatch sequence is deterministic.
func TestPoolDRRFairness(t *testing.T) {
	clock := newFakeClock()
	gate := make(chan struct{})
	p := NewPool(PoolConfig{
		Workers: 1, QueueDepth: 256, now: clock.now,
		Tenants: map[string]TenantConfig{
			"a": {Weight: 1}, "b": {Weight: 1}, "c": {Weight: 2},
		},
	}, func(j *Job) { <-gate; close(j.done) })
	defer func() { close(gate); p.Stop() }()

	// Saturate: enough backlog per tenant that no queue empties during
	// the measured window. Enqueue bypasses the global window, which is
	// exactly what a fairness test wants — admission is not under test.
	const perTenant = 40
	for i := 0; i < perTenant; i++ {
		for _, name := range []string{"a", "b", "c"} {
			p.Enqueue(tenantJob(name))
		}
	}

	const rounds = 8 // 8 DRR rounds x (1+1+2) = 32 dispatches
	const dispatches = rounds * 4
	for i := 0; i < dispatches; i++ {
		gate <- struct{}{}
	}
	waitFor(t, "measured dispatches to complete", func() bool {
		_, completed, _ := p.Stats()
		return completed == dispatches
	})

	counts := map[string]int64{}
	for _, snap := range p.TenantSnapshots() {
		counts[snap.Tenant] = snap.Dequeues
	}
	// Expected shares: a=8, b=8, c=16. The worker may have dequeued one
	// extra job beyond the 32 completions (it blocks on the gate after
	// dequeue), and a partial round skews each tenant by at most its
	// weight: tolerance = weight + 1.
	want := map[string]int64{"a": rounds * 1, "b": rounds * 1, "c": rounds * 2}
	tol := map[string]int64{"a": 2, "b": 2, "c": 3}
	for name, w := range want {
		got := counts[name]
		if got < w-tol[name] || got > w+tol[name] {
			t.Errorf("tenant %s: %d dequeues over %d rounds, want %d±%d (all: %v)",
				name, got, rounds, w, tol[name], counts)
		}
	}
}

// TestPoolTenantQueueQuota: a tenant at its MaxQueue is refused with a
// *QuotaError while another tenant is admitted normally — the refusal
// is per-tenant, not global. The tenant's MaxConcurrent cap is what
// builds its queue: with one job running, the rest must wait even
// though workers are idle, so the queue bound is reachable while the
// global window stays open.
func TestPoolTenantQueueQuota(t *testing.T) {
	clock := newFakeClock()
	gate := make(chan struct{})
	var started atomic.Int64
	p := NewPool(PoolConfig{
		Workers: 4, QueueDepth: 64, RetryMin: 100 * time.Millisecond, now: clock.now,
		Tenants: map[string]TenantConfig{"q": {MaxConcurrent: 1, MaxQueue: 2}},
	}, func(j *Job) { started.Add(1); <-gate; close(j.done) })
	defer func() { close(gate); p.Stop() }()

	if err := p.Submit(tenantJob("q")); err != nil {
		t.Fatalf("first submit refused: %v", err)
	}
	waitFor(t, "worker pickup", func() bool { return started.Load() == 1 })
	for i := 0; i < 2; i++ {
		if err := p.Submit(tenantJob("q")); err != nil {
			t.Fatalf("queued submit %d refused: %v", i, err)
		}
	}
	err := p.Submit(tenantJob("q"))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("submit past MaxQueue: %v, want ErrQuotaExceeded", err)
	}
	var q *QuotaError
	if !errors.As(err, &q) {
		t.Fatalf("error is %T, want *QuotaError", err)
	}
	if q.Tenant != "q" || q.Kind != "queue" || q.Limit != 2 {
		t.Errorf("QuotaError = %+v, want tenant q, kind queue, limit 2", q)
	}
	if q.RetryAfter < 100*time.Millisecond {
		t.Errorf("Retry-After %v below the configured floor", q.RetryAfter)
	}
	// The quota is q's alone: an unconfigured tenant sails through.
	if err := p.Submit(tenantJob("other")); err != nil {
		t.Fatalf("other tenant refused by q's quota: %v", err)
	}
	for _, snap := range p.TenantSnapshots() {
		if snap.Tenant == "q" && snap.Sheds != 1 {
			t.Errorf("tenant q sheds = %d, want 1", snap.Sheds)
		}
		if snap.Tenant == "other" && snap.Sheds != 0 {
			t.Errorf("tenant other sheds = %d, want 0", snap.Sheds)
		}
	}
}

// TestPoolCycleQuota covers the token-bucket edges: exhaustion mid-job
// drives the balance negative without killing the job, new submits are
// refused with kind "cycles" until the refill turns the balance
// positive, and a job admitted before exhaustion stays queued and runs.
func TestPoolCycleQuota(t *testing.T) {
	clock := newFakeClock()
	gate := make(chan struct{})
	var started atomic.Int64
	p := NewPool(PoolConfig{
		Workers: 1, QueueDepth: 64, RetryMin: 50 * time.Millisecond, now: clock.now,
		Tenants: map[string]TenantConfig{"m": {CycleBudget: 1000, CycleRefill: 1000}},
	}, func(j *Job) { started.Add(1); <-gate; close(j.done) })
	defer func() { close(gate); p.Stop() }()

	// Two admits while the balance is positive: one runs, one queues.
	running := tenantJob("m")
	queuedJob := tenantJob("m")
	if err := p.Submit(running); err != nil {
		t.Fatalf("first submit refused: %v", err)
	}
	waitFor(t, "worker pickup", func() bool { return started.Load() == 1 })
	if err := p.Submit(queuedJob); err != nil {
		t.Fatalf("second submit refused: %v", err)
	}

	// The running job burns far past the budget: exhaustion mid-job is
	// charged, not prevented.
	p.ChargeCycles("m", 2500) // balance 1000 -> -1500
	err := p.Submit(tenantJob("m"))
	if !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("submit with a negative balance: %v, want ErrQuotaExceeded", err)
	}
	var q *QuotaError
	if !errors.As(err, &q) || q.Kind != "cycles" {
		t.Fatalf("error %v, want *QuotaError kind cycles", err)
	}
	// Two jobs in flight reserve 2*2500 on top of the 1500 deficit:
	// 6501 cycles short at 1000/s is ~6.5s.
	if q.RetryAfter < 5*time.Second || q.RetryAfter > 8*time.Second {
		t.Errorf("cycle Retry-After %v, want ~6.5s", q.RetryAfter)
	}

	// Refill while queued: the already-admitted job is untouched by the
	// exhausted bucket — it dequeues and runs as soon as the worker
	// frees, even before any refill.
	gate <- struct{}{}
	waitFor(t, "queued job dispatched despite exhaustion", func() bool { return started.Load() == 2 })

	// Not enough elapsed time: still refused (and the running job's
	// in-flight reservation would hold the door shut regardless).
	clock.advance(500 * time.Millisecond) // -1500 + 500 = -1000
	if err := p.Submit(tenantJob("m")); !errors.Is(err, ErrQuotaExceeded) {
		t.Fatalf("submit after partial refill: %v, want ErrQuotaExceeded", err)
	}
	// The second job finishes cheap: its reservation converts to a real
	// charge and the per-job estimate decays toward the observed mix.
	gate <- struct{}{}
	p.ChargeCycles("m", 100) // balance -1000 -> -1100
	waitFor(t, "second job drained", func() bool {
		for _, snap := range p.TenantSnapshots() {
			if snap.Tenant == "m" {
				return snap.Running == 0 && snap.Queued == 0
			}
		}
		return false
	})
	// Past the break-even point, with nothing in flight to reserve for,
	// the tenant is admitted again.
	clock.advance(1300 * time.Millisecond) // -1100 + 1300 = +200
	if err := p.Submit(tenantJob("m")); err != nil {
		t.Fatalf("submit after refill: %v, want admitted", err)
	}
	for _, snap := range p.TenantSnapshots() {
		if snap.Tenant == "m" {
			if snap.CyclesUsed != 2600 {
				t.Errorf("cycles_used %d, want 2600", snap.CyclesUsed)
			}
			if snap.CycleBalance > snap.CycleBudget {
				t.Errorf("balance %d above budget %d", snap.CycleBalance, snap.CycleBudget)
			}
		}
	}
}

// TestPoolMaxConcurrent: a tenant at its concurrency cap leaves workers
// to other tenants; its surplus stays queued until one of its own jobs
// finishes.
func TestPoolMaxConcurrent(t *testing.T) {
	clock := newFakeClock()
	gates := map[string]chan struct{}{
		"capped": make(chan struct{}),
		"free":   make(chan struct{}),
	}
	var started atomic.Int64
	p := NewPool(PoolConfig{
		Workers: 3, QueueDepth: 64, now: clock.now,
		Tenants: map[string]TenantConfig{"capped": {MaxConcurrent: 1}},
	}, func(j *Job) { started.Add(1); <-gates[j.Tenant]; close(j.done) })
	defer p.Stop()

	if err := p.Submit(tenantJob("capped")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := p.Submit(tenantJob("capped")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	if err := p.Submit(tenantJob("free")); err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The free tenant and one capped job run; the second capped job
	// stays queued even though a worker is idle.
	waitFor(t, "one capped + one free running", func() bool { return started.Load() == 2 })
	time.Sleep(20 * time.Millisecond)
	if n := started.Load(); n != 2 {
		t.Fatalf("%d jobs running, want 2 (capped tenant over its cap)", n)
	}
	// Finishing the capped job releases the next one.
	gates["capped"] <- struct{}{}
	waitFor(t, "second capped job dispatched", func() bool { return started.Load() == 3 })
	gates["capped"] <- struct{}{}
	gates["free"] <- struct{}{}
	waitFor(t, "drain", p.Idle)
}

// TestPoolPerTenantRetryAfter: when the hard queue bound refuses both a
// flooding tenant and a nearly-idle one, each shed carries a
// Retry-After derived from the refused tenant's own backlog, so the
// quiet tenant's backoff is strictly smaller than the flooder's.
// Also pins the weighted-fair admission guarantee: a tenant below its
// window share is admitted even while the flood holds the window full.
func TestPoolPerTenantRetryAfter(t *testing.T) {
	clock := newFakeClock()
	gate := make(chan struct{})
	var started atomic.Int64
	p := NewPool(PoolConfig{
		Workers: 1, QueueDepth: 6, RetryMin: 10 * time.Millisecond, now: clock.now,
	}, func(j *Job) { started.Add(1); <-gate; close(j.done) })
	defer func() { close(gate); p.Stop() }()

	// Build the noisy backlog through the recovery path (Enqueue skips
	// admission, which keeps the setup deterministic): one job runs,
	// four wait in noisy's queue. The AIMD window (one worker) is now
	// far exceeded.
	for i := 0; i < 5; i++ {
		p.Enqueue(tenantJob("noisy"))
	}
	waitFor(t, "worker pickup", func() bool { return started.Load() == 1 })

	// A fresh noisy submit sheds; its hint prices in its own four-deep
	// backlog.
	err := p.Submit(tenantJob("noisy"))
	var noisyShed *ShedError
	if !errors.As(err, &noisyShed) {
		t.Fatalf("noisy submit: %v, want *ShedError", err)
	}
	if noisyShed.Tenant != "noisy" {
		t.Errorf("shed tenant %q, want noisy", noisyShed.Tenant)
	}

	// Weighted-fair admission: the quiet tenant is below its share of
	// the window, so the flood-filled window does not refuse it.
	if err := p.Submit(tenantJob("quiet")); err != nil {
		t.Fatalf("quiet tenant refused below its fair share: %v", err)
	}
	// The next quiet submit is at its share with the window full, so it
	// sheds — but its hint reflects quiet's one-deep queue, not noisy's
	// five.
	err = p.Submit(tenantJob("quiet"))
	var quietShed *ShedError
	if !errors.As(err, &quietShed) {
		t.Fatalf("quiet submit at the hard bound: %v, want *ShedError", err)
	}
	if quietShed.RetryAfter >= noisyShed.RetryAfter {
		t.Errorf("quiet Retry-After %v not below noisy's %v — backoff is not per-tenant",
			quietShed.RetryAfter, noisyShed.RetryAfter)
	}
}

// TestCacheCostAwareEviction: past capacity the cheapest-to-recompute
// entry is evicted first, ties oldest-first, and evictions are counted
// globally and against the inserting tenant.
func TestCacheCostAwareEviction(t *testing.T) {
	c := NewCache(2)
	c.Put(1, "a", JobResult{Digest: "d1", Cycles: 1_000_000})
	c.Put(2, "a", JobResult{Digest: "d2", Cycles: 10})
	c.Put(3, "b", JobResult{Digest: "d3", Cycles: 500_000})

	if _, ok := c.Get(2, "a"); ok {
		t.Error("cheapest entry (key 2) survived eviction")
	}
	if r, ok := c.Get(1, "a"); !ok || r.Digest != "d1" {
		t.Error("most expensive entry (key 1) was evicted")
	}
	if r, ok := c.Get(3, "b"); !ok || r.Digest != "d3" {
		t.Error("new entry (key 3) missing")
	}
	hits, misses, evictions, entries := c.Stats()
	if evictions != 1 || entries != 2 {
		t.Errorf("stats: evictions %d entries %d, want 1 and 2", evictions, entries)
	}
	if hits != 2 || misses != 1 {
		t.Errorf("stats: hits %d misses %d, want 2 and 1", hits, misses)
	}
	ts := c.TenantStats()
	if ts["b"].Evictions != 1 {
		t.Errorf("inserting tenant b charged %d evictions, want 1", ts["b"].Evictions)
	}
	if ts["a"].Hits != 1 || ts["b"].Hits != 1 {
		t.Errorf("per-tenant hits a=%d b=%d, want 1 and 1", ts["a"].Hits, ts["b"].Hits)
	}

	// Equal costs: the older entry goes first.
	c2 := NewCache(2)
	c2.Put(10, "x", JobResult{Digest: "old", Cycles: 100})
	c2.Put(11, "x", JobResult{Digest: "mid", Cycles: 100})
	c2.Put(12, "x", JobResult{Digest: "new", Cycles: 100})
	if _, ok := c2.Get(10, "x"); ok {
		t.Error("equal-cost eviction did not take the oldest entry")
	}
	if _, ok := c2.Get(11, "x"); !ok {
		t.Error("equal-cost eviction took the wrong entry")
	}
}

// TestHTTPTenantRouting: the X-T3D-Tenant header names the tenant, a
// tenant in the spec body wins over the header, and the tenant rides
// the status wire form.
func TestHTTPTenantRouting(t *testing.T) {
	s := newTestServer(t, Config{})
	defer s.Drain(5 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body, header string) JobStatus {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if header != "" {
			req.Header.Set("X-T3D-Tenant", header)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("submit status %d", resp.StatusCode)
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}

	alice := post(`{"app":"em3d","pes":2,"nodes_per_pe":8,"degree":2,"iters":1,"seed":301}`, "alice")
	if alice.Tenant != "alice" {
		t.Errorf("header tenant: job tenant %q, want alice", alice.Tenant)
	}
	bob := post(`{"app":"em3d","pes":2,"nodes_per_pe":8,"degree":2,"iters":1,"seed":302,"tenant":"bob"}`, "alice")
	if bob.Tenant != "bob" {
		t.Errorf("body tenant must win: job tenant %q, want bob", bob.Tenant)
	}
	unlabeled := post(`{"app":"em3d","pes":2,"nodes_per_pe":8,"degree":2,"iters":1,"seed":303}`, "")
	if unlabeled.Tenant != DefaultTenant {
		t.Errorf("unlabeled submit: job tenant %q, want %q", unlabeled.Tenant, DefaultTenant)
	}

	// An invalid tenant name is a 400, not a scheduling surprise.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/jobs",
		strings.NewReader(`{"app":"em3d","seed":304}`))
	req.Header.Set("X-T3D-Tenant", "no spaces allowed")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("invalid tenant name: status %d, want 400", resp.StatusCode)
	}

	// A tenant served purely from the shared cache never touches the
	// scheduler, but its hits must still show up on /statusz. The routed
	// jobs finish first, so the direct submit below cannot be shed by
	// the admission window they fill.
	for _, st := range []JobStatus{alice, bob, unlabeled} {
		j, err := s.Job(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		awaitJob(t, j)
	}
	spec := quickSpec(305)
	spec.Tenant = "alice"
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	awaitJob(t, j)
	spec.Tenant = "cache-rider"
	if _, err := s.Submit(spec); err != nil {
		t.Fatal(err)
	}
	var rider *TenantStatus
	for _, tn := range s.Status().Tenants {
		if tn.Tenant == "cache-rider" {
			tn := tn
			rider = &tn
		}
	}
	if rider == nil {
		t.Fatal("cache-only tenant missing from statusz")
	}
	if rider.CacheHits != 1 || rider.Admitted != 0 {
		t.Errorf("cache-only tenant: hits %d admitted %d, want 1 and 0", rider.CacheHits, rider.Admitted)
	}
}

// TestHTTPQuota429: a tenant over its queue quota gets 429 with a
// positive Retry-After while another tenant's submit is admitted, and
// /statusz breaks the refusals out per tenant.
func TestHTTPQuota429(t *testing.T) {
	// Noisy's concurrency cap is what lets its queue fill while the
	// global window (3 workers) still has room for the quiet tenant.
	s := newTestServer(t, Config{Pool: PoolConfig{
		Workers: 3, QueueDepth: 64, RetryMin: time.Second,
		Tenants: map[string]TenantConfig{"noisy": {MaxConcurrent: 1, MaxQueue: 1}},
	}})
	defer s.Drain(60 * time.Second)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	submit := func(tenant string, seed int64) *http.Response {
		t.Helper()
		body := fmt.Sprintf(`{"app":"em3d","pes":8,"nodes_per_pe":120,"degree":8,"iters":2,"seed":%d,"tenant":%q}`, seed, tenant)
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Flood noisy with distinct slow specs until its one-deep queue
	// quota trips.
	var got429 *http.Response
	for seed := int64(400); seed < 420; seed++ {
		resp := submit("noisy", seed)
		if resp.StatusCode == http.StatusTooManyRequests {
			got429 = resp
			break
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			t.Fatalf("flood submit: status %d", resp.StatusCode)
		}
	}
	if got429 == nil {
		t.Fatal("noisy tenant never hit its queue quota")
	}
	if ra, err := strconv.Atoi(got429.Header.Get("Retry-After")); err != nil || ra < 1 {
		t.Errorf("quota 429 Retry-After %q, want positive integer seconds", got429.Header.Get("Retry-After"))
	}
	// The quiet tenant is untouched by noisy's quota.
	if resp := submit("quiet", 450); resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("quiet tenant refused while noisy at quota: status %d", resp.StatusCode)
	}

	zr, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	var z Statusz
	if err := json.NewDecoder(zr.Body).Decode(&z); err != nil {
		t.Fatal(err)
	}
	zr.Body.Close()
	byName := map[string]TenantStatus{}
	for _, tn := range z.Tenants {
		byName[tn.Tenant] = tn
	}
	if byName["noisy"].Sheds < 1 {
		t.Errorf("statusz: noisy sheds %d, want >= 1", byName["noisy"].Sheds)
	}
	if byName["quiet"].Sheds != 0 {
		t.Errorf("statusz: quiet sheds %d, want 0", byName["quiet"].Sheds)
	}
	if byName["quiet"].Admitted < 1 {
		t.Errorf("statusz: quiet admitted %d, want >= 1", byName["quiet"].Admitted)
	}
}

// TestJournalTenantReplay: tenant identity survives the journal — a
// tenant-tagged job killed mid-run replays under its tenant, and a
// record with no tenant anywhere (a submit without X-T3D-Tenant)
// replays as the default tenant.
func TestJournalTenantReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenant.journal")

	spec := slowSpec(61)
	spec.Tenant = "alice"
	s1 := newTestServer(t, Config{JournalPath: path, Pool: PoolConfig{Workers: 1}})
	j1, err := s1.Submit(spec)
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	s1.Kill() // before completion: the submitted record is all there is

	s2 := newTestServer(t, Config{JournalPath: path, Pool: PoolConfig{Workers: 1}})
	j2, err := s2.Job(j1.ID)
	if err != nil {
		t.Fatalf("recovered job missing: %v", err)
	}
	if j2.Tenant != "alice" {
		t.Errorf("recovered job tenant %q, want alice", j2.Tenant)
	}
	awaitJob(t, j2)
	if j2.State() != StateDone {
		t.Fatalf("recovered job ended %v (%s)", j2.State(), j2.Err)
	}
	if err := s2.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// A submit without a tenant is journaled, as Server.journalSubmitted
	// writes it, with an empty Spec.Tenant; it replays as the default
	// tenant.
	barePath := filepath.Join(dir, "untenanted.journal")
	bareSpec := quickSpec(62)
	jr, _, err := OpenJournal(barePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := jr.Append(Record{Type: recSubmitted, ID: "j00000001",
		Key: KeyString(bareSpec), Tenant: DefaultTenant, Spec: &bareSpec}); err != nil {
		t.Fatal(err)
	}
	if err := jr.Close(); err != nil {
		t.Fatal(err)
	}
	s3 := newTestServer(t, Config{JournalPath: barePath, Pool: PoolConfig{Workers: 1}})
	j3, err := s3.Job("j00000001")
	if err != nil {
		t.Fatalf("untenanted job not recovered: %v", err)
	}
	if j3.Tenant != DefaultTenant {
		t.Errorf("untenanted job tenant %q, want %q", j3.Tenant, DefaultTenant)
	}
	awaitJob(t, j3)
	if j3.State() != StateDone {
		t.Fatalf("untenanted job ended %v (%s)", j3.State(), j3.Err)
	}
	if err := s3.Drain(30 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
}
