package serve

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"
)

// wbRun is one well-behaved tenant's measured pass: it submits jobs
// distinct specs one after another (steady closed-loop load), waits for
// each, verifies the digest against the batch harness, and records
// completion rate and queue waits.
type wbRun struct {
	completed int
	elapsed   time.Duration
	waits     []time.Duration
}

func (r wbRun) rate() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.completed) / r.elapsed.Seconds()
}

func p99(waits []time.Duration) time.Duration {
	if len(waits) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), waits...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[(len(sorted)*99)/100]
}

// runWellBehaved drives one tenant through its job list and measures.
func runWellBehaved(t *testing.T, s *Server, tenant string, specs []JobSpec, want []string) (wbRun, error) {
	var r wbRun
	start := time.Now()
	for i, sp := range specs {
		sp.Tenant = tenant
		var j *Job
		admitBy := time.Now().Add(60 * time.Second)
		for {
			var err error
			j, err = s.Submit(sp)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrShed) && !errors.Is(err, ErrQuotaExceeded) {
				return r, fmt.Errorf("tenant %s job %d: %w", tenant, i, err)
			}
			if time.Now().After(admitBy) {
				return r, fmt.Errorf("tenant %s job %d: never admitted", tenant, i)
			}
			time.Sleep(2 * time.Millisecond)
		}
		select {
		case <-j.Done():
		case <-time.After(60 * time.Second):
			return r, fmt.Errorf("tenant %s job %s stuck", tenant, j.ID)
		}
		if j.State() != StateDone {
			return r, fmt.Errorf("tenant %s job %s ended %v (%s)", tenant, j.ID, j.State(), j.Err)
		}
		if j.Result.Digest != want[i] {
			return r, fmt.Errorf("tenant %s job %s digest %s, batch says %s", tenant, j.ID, j.Result.Digest, want[i])
		}
		r.completed++
		r.waits = append(r.waits, j.QueueWait())
	}
	r.elapsed = time.Since(start)
	return r, nil
}

// TestSoakNoisyNeighbor is the tenant-isolation acceptance soak, run
// across 3 seeds: an adversarial tenant floods duplicate-heavy
// expensive jobs while two well-behaved tenants submit steady streams
// of distinct work. Per seed the well-behaved tenants are measured solo
// first (same pool shape, no flood), then under the flood; they must
// retain at least half their solo completion rate, their p99 queueing
// delay must stay within a bounded factor, every digest must match the
// batch harness, and nothing may leak.
func TestSoakNoisyNeighbor(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()

			// Three workers; the noisy tenant is capped to one of them, a
			// short queue, and a simulated-cycle budget that refills at
			// roughly one expensive job per second — so admission sheds
			// its flood with 429s and the cycle quota bounds how much
			// compute it can sustain, while the well-behaved tenants keep
			// their fair share.
			poolCfg := func() PoolConfig {
				return PoolConfig{
					Workers: 3, QueueDepth: 16, RetryMin: time.Millisecond,
					Tenants: map[string]TenantConfig{
						"wb-a": {Weight: 2},
						"wb-b": {Weight: 2},
						"noisy": {Weight: 1, MaxConcurrent: 1, MaxQueue: 1,
							CycleBudget: 120_000, CycleRefill: 120_000},
					},
				}
			}

			// Enough jobs that the window outlasts the noisy tenant's
			// opening burst (its full cycle bucket, about three
			// expensive jobs at once): the bound is about the
			// sustained share its quota allows, not that transient.
			const jobsPerTenant = 40
			mkSpecs := func(tenant int64) ([]JobSpec, []string) {
				specs := make([]JobSpec, jobsPerTenant)
				want := make([]string, jobsPerTenant)
				for i := range specs {
					// Distinct seeds per (soak seed, tenant, job): every
					// job is a real simulation, so the measured rate is
					// worker throughput, not cache hits masking the flood.
					specs[i] = JobSpec{App: AppEM3D, PEs: 4, NodesPerPE: 60, Degree: 4,
						Iters: 2, Seed: seed*100_000 + tenant*1_000 + int64(i)}
					want[i] = referenceDigest(t, specs[i])
				}
				return specs, want
			}
			specsA, wantA := mkSpecs(1)
			specsB, wantB := mkSpecs(2)

			measure := func(s *Server, flood bool) (ra, rb wbRun) {
				stop := make(chan struct{})
				var floodWG sync.WaitGroup
				if flood {
					// The adversary: expensive specs, duplicate-heavy (a
					// 4-seed pool, so dedup and the cache absorb most of
					// the flood) plus a distinct tail to keep real load
					// coming. Refusals are ignored — adversaries do not
					// back off.
					floodWG.Add(1)
					go func() {
						defer floodWG.Done()
						var jobs []*Job
						for n := 0; ; n++ {
							select {
							case <-stop:
								// Let admitted flood jobs finish so Drain
								// is not fighting the adversary.
								for _, j := range jobs {
									select {
									case <-j.Done():
									case <-time.After(60 * time.Second):
									}
								}
								return
							default:
							}
							sp := slowSpec(seed*1_000_000 + int64(n%4))
							if n%8 == 7 {
								sp = slowSpec(seed*1_000_000 + 100 + int64(n))
							}
							sp.Iters = 1 // ~3x a well-behaved job; ~50k cycles
							sp.Tenant = "noisy"
							if j, err := s.Submit(sp); err == nil {
								jobs = append(jobs, j)
							}
							time.Sleep(time.Millisecond)
						}
					}()
				}
				var wg sync.WaitGroup
				var errA, errB error
				wg.Add(2)
				go func() { defer wg.Done(); ra, errA = runWellBehaved(t, s, "wb-a", specsA, wantA) }()
				go func() { defer wg.Done(); rb, errB = runWellBehaved(t, s, "wb-b", specsB, wantB) }()
				wg.Wait()
				close(stop)
				floodWG.Wait()
				if errA != nil {
					t.Fatal(errA)
				}
				if errB != nil {
					t.Fatal(errB)
				}
				return ra, rb
			}

			// Solo baseline: the well-behaved pair with no adversary.
			solo := newTestServer(t, Config{Pool: poolCfg()})
			soloA, soloB := measure(solo, false)
			if err := solo.Drain(60 * time.Second); err != nil {
				t.Fatalf("solo drain: %v", err)
			}

			// Contended: same shape plus the flood.
			loud := newTestServer(t, Config{Pool: poolCfg()})
			contA, contB := measure(loud, true)
			st := loud.Status()
			if err := loud.Drain(60 * time.Second); err != nil {
				t.Fatalf("contended drain: %v", err)
			}

			// Isolation bound: each well-behaved tenant keeps >= 50% of
			// its solo completion rate under the flood.
			for _, c := range []struct {
				name       string
				solo, cont wbRun
			}{{"wb-a", soloA, contA}, {"wb-b", soloB, contB}} {
				if c.cont.completed != jobsPerTenant {
					t.Errorf("%s completed %d/%d jobs under flood", c.name, c.cont.completed, jobsPerTenant)
				}
				t.Logf("%s: solo %.1f jobs/s (p99 wait %v), flooded %.1f jobs/s (p99 wait %v)",
					c.name, c.solo.rate(), p99(c.solo.waits), c.cont.rate(), p99(c.cont.waits))
				if ratio := c.cont.rate() / c.solo.rate(); ratio < 0.5 {
					t.Errorf("%s completion rate under flood is %.0f%% of solo (%.1f vs %.1f jobs/s), want >= 50%%",
						c.name, 100*ratio, c.cont.rate(), c.solo.rate())
				}
				// p99 queueing delay: bounded factor of solo, with an
				// absolute floor so near-zero solo waits cannot make the
				// bound vacuous-strict.
				soloP99 := p99(c.solo.waits)
				if floor := 25 * time.Millisecond; soloP99 < floor {
					soloP99 = floor
				}
				if contP99 := p99(c.cont.waits); contP99 > 10*soloP99 {
					t.Errorf("%s p99 queue wait %v under flood, bound is 10x solo (%v)",
						c.name, contP99, 10*soloP99)
				}
			}
			// The flood must actually have pressured the service — an
			// adversary that never got throttled or absorbed proves
			// nothing.
			var noisy TenantStatus
			for _, tn := range st.Tenants {
				if tn.Tenant == "noisy" {
					noisy = tn
				}
			}
			if noisy.Admitted == 0 {
				t.Error("noisy tenant never admitted — flood did not load the service")
			}
			if noisy.Sheds == 0 {
				t.Error("noisy tenant never throttled — quotas not exercised")
			}
			checkGoroutines(t, baseline)
		})
	}
}
