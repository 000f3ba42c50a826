package serve

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/hostfs"
)

// TestServerDegradedMode drives the full brownout lifecycle at the
// server layer: a dead disk degrades the journal, new submits are shed
// with ErrJournalDegraded while cached results and in-flight jobs keep
// being served, and when the disk heals the server re-admits work and
// re-journals the results that completed during the outage.
func TestServerDegradedMode(t *testing.T) {
	baseline := runtime.NumGoroutine()
	fsys := hostfs.NewFault(hostfs.OS(), hostfs.FaultConfig{})
	s := newTestServer(t, Config{
		JournalPath: filepath.Join(t.TempDir(), "deg.journal"),
		FS:          fsys,
		HealBackoff: time.Millisecond,
		// A slow host must not halve the admission window.
		Pool: PoolConfig{Workers: 1, QueueDepth: 8, TargetWait: time.Minute},
	})

	// A healthy job first: its result must survive the whole brownout.
	warm := quickSpec(9100)
	j, err := s.Submit(warm)
	if err != nil {
		t.Fatalf("healthy submit: %v", err)
	}
	// A job is done before its worker leaves the pool's running count.
	// Until it does, admission counts it beside the next job and can
	// shed a submit before it reaches the journal, so wait for the count.
	awaitCompleted := func(n int64) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if _, completed, _ := s.pool.Stats(); completed >= n {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("pool never counted %d jobs complete", n)
			}
		}
	}
	awaitJob(t, j)
	awaitCompleted(1)
	warmDigest := j.Result.Digest

	// A slow job admitted while healthy, still running when the disk
	// dies: it must complete and its result must be served even though
	// its done record cannot be written yet.
	inflight, err := s.Submit(slowSpec(9101))
	if err != nil {
		t.Fatalf("in-flight submit: %v", err)
	}

	fsys.SetBroken(hostfs.BrokenEIO)
	// New work is refused with the degraded sentinel once the bounded
	// append retries exhaust.
	if _, err := s.Submit(quickSpec(9102)); !errors.Is(err, ErrJournalDegraded) {
		t.Fatalf("submit against a dead disk: err = %v, want ErrJournalDegraded", err)
	}
	if !errors.Is(&DegradedError{}, ErrJournalDegraded) {
		t.Fatal("DegradedError does not unwrap to ErrJournalDegraded")
	}
	// Cached results keep flowing while degraded.
	cj, err := s.Submit(warm)
	if err != nil {
		t.Fatalf("cached submit while degraded: %v", err)
	}
	if !cj.Result.Cached || cj.Result.Digest != warmDigest {
		t.Fatalf("cached result while degraded: %+v", cj.Result)
	}
	// The in-flight job completes during the outage.
	awaitJob(t, inflight)
	awaitCompleted(2)
	if inflight.State() != StateDone {
		t.Fatalf("in-flight job ended %v (%s) during brownout", inflight.State(), inflight.Err)
	}
	if st := s.Status(); st.Journal == nil || !st.Journal.Degraded {
		t.Fatalf("statusz does not report the degraded journal: %+v", st.Journal)
	}

	// Disk returns; the heal loop re-arms and submits flow again.
	fsys.Heal()
	deadline := time.Now().Add(5 * time.Second)
	var fresh *Job
	for {
		fresh, err = s.Submit(quickSpec(9103))
		if err == nil {
			break
		}
		if !errors.Is(err, ErrJournalDegraded) || time.Now().After(deadline) {
			t.Fatalf("submit after disk heal: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	awaitJob(t, fresh)
	if st := s.Status(); st.Journal == nil || st.Journal.Degraded || st.Journal.Heals == 0 {
		t.Fatalf("statusz after heal: %+v", st.Journal)
	}

	path := s.cfg.JournalPath
	if err := s.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}

	// Restart: the in-flight job's result — re-journaled on heal — must
	// come back from the durable cache, not a re-run.
	s2 := newTestServer(t, Config{JournalPath: path, Pool: PoolConfig{Workers: 1}})
	r2, err := s2.Submit(slowSpec(9101))
	if err != nil {
		t.Fatalf("restart submit: %v", err)
	}
	awaitJob(t, r2)
	if !r2.Result.Cached || r2.Result.Digest != inflight.Result.Digest {
		t.Fatalf("brownout-completed job not durable after heal+restart: cached=%v digest %q, want %q",
			r2.Result.Cached, r2.Result.Digest, inflight.Result.Digest)
	}
	if err := s2.Drain(10 * time.Second); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	checkGoroutines(t, baseline)
}

// TestSoakKillStormWithDiskFaults is the kill-storm soak with the
// seeded disk-fault injector live the whole time: every append sees a
// chance of clean EIO, torn short writes, and failed fsyncs, across
// three seeds. The acceptance bar is unchanged from the clean-disk
// storm — no acknowledged job lost, every digest bit-identical to the
// batch harness, recovery never refuses the journal.
func TestSoakKillStormWithDiskFaults(t *testing.T) {
	for _, seed := range []uint64{0x5eed1, 0x5eed2, 0x5eed3} {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			path := filepath.Join(t.TempDir(), "faultkill.journal")
			cfg := hostfs.FaultConfig{
				Seed:           seed,
				WriteErrRate:   0.10,
				ShortWriteRate: 0.10,
				SyncErrRate:    0.10,
			}
			specs := []JobSpec{slowSpec(41), slowSpec(42), slowSpec(43)}
			want := make(map[uint64]string, len(specs))
			for _, sp := range specs {
				want[Key(sp)] = referenceDigest(t, sp)
			}

			newFaultServer := func() *Server {
				return newTestServer(t, Config{
					JournalPath:     path,
					FS:              hostfs.NewFault(hostfs.OS(), cfg),
					MaxSegmentBytes: 1 << 10,
					HealBackoff:     time.Millisecond,
					Pool:            PoolConfig{Workers: 1, QueueDepth: 8},
				})
			}

			s1 := newFaultServer()
			var ids []string
			for _, sp := range specs {
				var j *Job
				admitBy := time.Now().Add(60 * time.Second)
				for {
					var err error
					j, err = s1.Submit(sp)
					if err == nil {
						break
					}
					// Sheds and degraded-mode refusals are both lawful
					// here; anything else is a bug.
					if !errors.Is(err, ErrShed) && !errors.Is(err, ErrJournalDegraded) {
						t.Fatalf("Submit: %v", err)
					}
					if time.Now().After(admitBy) {
						t.Fatalf("never admitted: %v", err)
					}
					time.Sleep(time.Millisecond)
				}
				ids = append(ids, j.ID)
			}
			s1.Kill() // mid-flight, faults and all

			// Crash during recovery, still on a faulty disk.
			s2 := newFaultServer()
			s2.Kill()

			// Final recovery runs everything down.
			s3 := newFaultServer()
			for _, id := range ids {
				j, err := s3.Job(id)
				if err != nil {
					continue // finished before a kill; checked via cache below
				}
				select {
				case <-j.Done():
				case <-time.After(60 * time.Second):
					t.Fatalf("recovered job %s stuck", id)
				}
				if j.State() != StateDone {
					t.Fatalf("recovered job %s ended %v (%s)", id, j.State(), j.Err)
				}
				if j.Result.Digest != want[j.Key] {
					t.Fatalf("job %s replayed to %s, batch says %s", id, j.Result.Digest, want[j.Key])
				}
			}
			for _, sp := range specs {
				res, ok := s3.cache.Get(Key(sp), DefaultTenant)
				if !ok {
					t.Fatalf("spec %016x has no result after fault-storm recovery", Key(sp))
				}
				if res.Digest != want[Key(sp)] {
					t.Fatalf("cached digest %s, batch says %s", res.Digest, want[Key(sp)])
				}
			}
			if err := s3.Drain(30 * time.Second); err != nil {
				t.Fatalf("Drain: %v", err)
			}
			checkGoroutines(t, baseline)
		})
	}
}
