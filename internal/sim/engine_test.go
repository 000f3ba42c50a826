package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestCallbackOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(10, func() { got = append(got, 1) })
	e.At(5, func() { got = append(got, 0) })
	e.At(10, func() { got = append(got, 2) }) // same time: schedule order
	end := e.Run()
	if end != 10 {
		t.Fatalf("end time = %d, want 10", end)
	}
	want := []int{0, 1, 2}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestAtInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestProcWait(t *testing.T) {
	e := NewEngine()
	var at []Time
	e.Spawn("w", func(p *Proc) {
		at = append(at, p.Now())
		p.Wait(7)
		at = append(at, p.Now())
		p.Wait(0) // no-op
		at = append(at, p.Now())
		p.Wait(3)
		at = append(at, p.Now())
	})
	e.Run()
	want := []Time{0, 7, 7, 10}
	if len(at) != len(want) {
		t.Fatalf("times = %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("times = %v, want %v", at, want)
		}
	}
}

func TestWaitNegativePanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "panicked") {
			t.Errorf("negative Wait: recover = %v", r)
		}
	}()
	e.Spawn("bad", func(p *Proc) { p.Wait(-1) })
	e.Run()
}

func TestSignalWakesAllWaiters(t *testing.T) {
	e := NewEngine()
	s := NewSignal("s")
	var woke []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		e.Spawn(name, func(p *Proc) {
			p.WaitSignal(s)
			woke = append(woke, name)
			if p.Now() != 42 {
				t.Errorf("%s woke at %d, want 42", name, p.Now())
			}
		})
	}
	e.Spawn("firer", func(p *Proc) {
		p.Wait(42)
		s.Fire(e)
	})
	e.Run()
	if len(woke) != 3 {
		t.Fatalf("woke = %v, want 3 procs", woke)
	}
	// Wakeups run in blocking order.
	if woke[0] != "a" || woke[1] != "b" || woke[2] != "c" {
		t.Fatalf("wake order = %v", woke)
	}
}

func TestSignalTimeout(t *testing.T) {
	e := NewEngine()
	s := NewSignal("s")
	var fired, timedOut bool
	e.Spawn("timeout", func(p *Proc) {
		ok := p.WaitSignalTimeout(s, 10)
		timedOut = !ok
		if p.Now() != 10 {
			t.Errorf("timeout at %d, want 10", p.Now())
		}
	})
	e.Spawn("signaled", func(p *Proc) {
		ok := p.WaitSignalTimeout(s, 100)
		fired = ok
		if p.Now() != 50 {
			t.Errorf("signaled at %d, want 50", p.Now())
		}
	})
	e.Spawn("firer", func(p *Proc) {
		p.Wait(50)
		s.Fire(e)
	})
	e.Run()
	if !timedOut {
		t.Error("first waiter should have timed out")
	}
	if !fired {
		t.Error("second waiter should have been signaled")
	}
}

func TestStaleSignalAfterTimeout(t *testing.T) {
	// A proc that times out and parks again must not be woken by a Fire
	// aimed at its earlier park.
	e := NewEngine()
	s := NewSignal("s")
	var resumes []Time
	e.Spawn("w", func(p *Proc) {
		p.WaitSignalTimeout(s, 5) // times out at 5
		resumes = append(resumes, p.Now())
		p.Wait(100) // parked 5..105; stale Fire at 50 must not wake it
		resumes = append(resumes, p.Now())
	})
	e.Spawn("firer", func(p *Proc) {
		p.Wait(50)
		s.Fire(e)
	})
	e.Run()
	if len(resumes) != 2 || resumes[0] != 5 || resumes[1] != 105 {
		t.Fatalf("resumes = %v, want [5 105]", resumes)
	}
}

func TestAwait(t *testing.T) {
	e := NewEngine()
	s := NewSignal("cond")
	count := 0
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
			count++
			s.Fire(e)
		}
	})
	var doneAt Time
	e.Spawn("consumer", func(p *Proc) {
		Await(p, s, func() bool { return count >= 3 })
		doneAt = p.Now()
	})
	e.Run()
	if doneAt != 30 {
		t.Fatalf("Await completed at %d, want 30", doneAt)
	}
}

func TestAwaitAlreadyTrue(t *testing.T) {
	e := NewEngine()
	s := NewSignal("cond")
	e.Spawn("c", func(p *Proc) {
		Await(p, s, func() bool { return true })
		if p.Now() != 0 {
			t.Errorf("Await blocked until %d on true condition", p.Now())
		}
	})
	e.Run()
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	s := NewSignal("never")
	e.Spawn("stuck", func(p *Proc) { p.WaitSignal(s) })
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "deadlock") {
			t.Errorf("recover = %v, want deadlock panic", r)
		}
		if !strings.Contains(r.(string), "stuck") {
			t.Errorf("deadlock report %q does not name the proc", r)
		}
	}()
	e.Run()
}

func TestSpawnFromProc(t *testing.T) {
	e := NewEngine()
	var childAt Time
	e.Spawn("parent", func(p *Proc) {
		p.Wait(5)
		e.Spawn("child", func(c *Proc) {
			c.Wait(3)
			childAt = c.Now()
		})
		p.Wait(1)
	})
	e.Run()
	if childAt != 8 {
		t.Fatalf("child finished at %d, want 8", childAt)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	e := NewEngine()
	e.Spawn("boom", func(p *Proc) {
		p.Wait(1)
		panic("kaboom")
	})
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(r.(string), "kaboom") {
			t.Errorf("recover = %v, want proc panic", r)
		}
	}()
	e.Run()
}

func TestTimeLimit(t *testing.T) {
	e := NewEngine()
	e.Limit = 100
	e.Spawn("loop", func(p *Proc) {
		for {
			p.Wait(30)
		}
	})
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "limit") {
			t.Errorf("recover = %v, want limit panic", r)
		}
	}()
	e.Run()
}

func TestYield(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run()
	want := "a1 b1 a2"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("order = %q, want %q", got, want)
	}
}

func TestResource(t *testing.T) {
	var r Resource
	if s := r.Acquire(10, 5); s != 10 {
		t.Fatalf("first acquire starts at %d, want 10", s)
	}
	if s := r.Acquire(11, 5); s != 15 {
		t.Fatalf("overlapping acquire starts at %d, want 15", s)
	}
	if s := r.Acquire(100, 5); s != 100 {
		t.Fatalf("late acquire starts at %d, want 100", s)
	}
	if r.FreeAt() != 105 {
		t.Fatalf("FreeAt = %d, want 105", r.FreeAt())
	}
}

func TestResourceZeroOccupancy(t *testing.T) {
	var r Resource
	r.Acquire(10, 0)
	if s := r.Acquire(10, 3); s != 10 {
		t.Fatalf("zero-occupancy acquire blocked: start %d, want 10", s)
	}
}

func TestEngineAfter(t *testing.T) {
	e := NewEngine()
	var at Time = -1
	e.Spawn("setup", func(p *Proc) {
		p.Wait(20)
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 25 {
		t.Fatalf("After fired at %d, want 25", at)
	}
}

func TestPropertyEventsFireInTimeOrder(t *testing.T) {
	// Property: callbacks scheduled at arbitrary times fire in
	// non-decreasing time order, with schedule order breaking ties.
	f := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			e.At(Time(d), func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyCallbacksAndWakeupsFireInScheduleOrder(t *testing.T) {
	// Property: callbacks and proc wakeups, scheduled from procs and
	// from callbacks at delays of 0–2 cycles (so most times tie), fire
	// at their due times in strictly increasing (time, scheduling index)
	// order, whether RunErr or a parking proc pops them.
	type stamp struct {
		at  Time
		idx int
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var fired []stamp
		scheduled, late := 0, false
		record := func(due Time, idx int) {
			late = late || e.Now() != due
			fired = append(fired, stamp{e.Now(), idx})
		}
		var schedule func(depth int)
		schedule = func(depth int) {
			due, idx := e.Now()+Time(rng.Intn(3)), scheduled
			scheduled++
			e.At(due, func() {
				record(due, idx)
				if depth > 0 && rng.Intn(2) == 0 {
					schedule(depth - 1)
				}
			})
		}
		for i := 0; i < 4; i++ {
			e.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for k := 0; k < 20; k++ {
					if rng.Intn(3) == 0 {
						schedule(2)
					}
					d, idx := Time(rng.Intn(3)), scheduled
					scheduled++
					due := p.Now() + d
					if d == 0 {
						p.Yield()
					} else {
						p.Wait(d)
					}
					record(due, idx)
				}
			})
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			a, b := fired[i-1], fired[i]
			if b.at < a.at || b.at == a.at && b.idx <= a.idx {
				return false
			}
		}
		return !late && len(fired) == scheduled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestKernelHotPathsDoNotAllocate pins the event kernel's steady state
// at zero allocations, once the heap's backing array and the signals'
// waiter slices have grown: scheduling and popping a callback, a proc's
// Wait (its wakeup event plus the switches around it), and a handoff
// from one proc to another through RunErr's loop.
func TestKernelHotPathsDoNotAllocate(t *testing.T) {
	e := NewEngine()
	nop := func() {}
	atPop := func() {
		for i := 0; i < 64; i++ {
			e.At(e.Now()+Time(i%8), nop)
		}
		e.Run()
	}
	atPop()
	if a := testing.AllocsPerRun(50, atPop); a != 0 {
		t.Errorf("At + pop: %v allocations per 64 events, want 0", a)
	}

	const waits = 100
	start := NewSignal("start")
	e.SpawnDaemon("waiter", func(p *Proc) {
		for {
			p.WaitSignal(start)
			for i := 0; i < waits; i++ {
				p.Wait(1)
			}
		}
	})
	fire := func() { start.Fire(e) }
	round := func() {
		e.At(e.Now(), fire)
		e.Run()
	}
	e.Run() // the waiter parks on start
	round()
	if a := testing.AllocsPerRun(50, round); a != 0 {
		t.Errorf("proc Wait: %v allocations per %d waits, want 0", a, waits)
	}

	// Each wakeup in a round trip is of the other proc, so none resumes
	// the proc that parked.
	const trips = 100
	kick, ping, pong := NewSignal("kick"), NewSignal("ping"), NewSignal("pong")
	e.SpawnDaemon("ponger", func(p *Proc) {
		for {
			p.WaitSignal(ping)
			pong.Fire(e)
		}
	})
	e.SpawnDaemon("pinger", func(p *Proc) {
		for {
			p.WaitSignal(kick)
			for i := 0; i < trips; i++ {
				ping.Fire(e)
				p.WaitSignal(pong)
			}
		}
	})
	fireKick := func() { kick.Fire(e) }
	rally := func() {
		e.At(e.Now(), fireKick)
		e.Run()
	}
	e.Run() // both park
	rally()
	if a := testing.AllocsPerRun(50, rally); a != 0 {
		t.Errorf("proc-to-proc handoff: %v allocations per %d round trips, want 0", a, trips)
	}
	e.Shutdown()
}

func TestDeadlockDiagnosticContents(t *testing.T) {
	// The structured diagnostic must name every stuck proc, the signal it
	// is parked on, and when it blocked.
	e := NewEngine()
	never := NewSignal("never.fires")
	e.Spawn("early", func(p *Proc) { p.WaitSignal(never) })
	e.Spawn("late", func(p *Proc) {
		p.Wait(37)
		p.WaitSignal(never)
	})
	end, err := e.RunErr()
	if err == nil {
		t.Fatal("RunErr returned nil for a deadlocked run")
	}
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("err = %T, want *DeadlockError", err)
	}
	if de.Now != end || de.Now != 37 {
		t.Errorf("DeadlockError.Now = %d, want 37", de.Now)
	}
	if len(de.Blocked) != 2 {
		t.Fatalf("Blocked = %v, want 2 entries", de.Blocked)
	}
	// Sorted by name: "early" then "late".
	if de.Blocked[0].Name != "early" || de.Blocked[0].Since != 0 {
		t.Errorf("entry 0 = %+v, want early blocked since 0", de.Blocked[0])
	}
	if de.Blocked[1].Name != "late" || de.Blocked[1].Since != 37 {
		t.Errorf("entry 1 = %+v, want late blocked since 37", de.Blocked[1])
	}
	for _, b := range de.Blocked {
		if b.Waiting != "never.fires" {
			t.Errorf("proc %s waiting on %q, want never.fires", b.Name, b.Waiting)
		}
	}
	msg := err.Error()
	for _, want := range []string{"deadlock", "early", "late", "never.fires", "since t=37"} {
		if !strings.Contains(msg, want) {
			t.Errorf("diagnostic %q missing %q", msg, want)
		}
	}
}

func TestRunErrCleanCompletion(t *testing.T) {
	e := NewEngine()
	e.Spawn("ok", func(p *Proc) { p.Wait(5) })
	end, err := e.RunErr()
	if err != nil || end != 5 {
		t.Fatalf("RunErr = (%d, %v), want (5, nil)", end, err)
	}
}

func TestWatchdogDetectsLivelock(t *testing.T) {
	// A proc spinning forever with a flat progress counter is a livelock:
	// the watchdog must stop the run with a structured error.
	e := NewEngine()
	e.SetWatchdog(100, 3, func() int64 { return 0 })
	e.Spawn("spinner", func(p *Proc) {
		for {
			p.Wait(10)
		}
	})
	_, err := e.RunErr()
	le, ok := err.(*LivelockError)
	if !ok {
		t.Fatalf("err = %v (%T), want *LivelockError", err, err)
	}
	if le.Checks != 3 || le.Progress != 0 {
		t.Errorf("LivelockError = %+v, want 3 stalled checks at progress 0", le)
	}
	if !strings.Contains(le.Error(), "livelock") {
		t.Errorf("error %q does not mention livelock", le.Error())
	}
}

func TestWatchdogAllowsProgress(t *testing.T) {
	// As long as the probe advances, the watchdog stays quiet even over a
	// long run.
	e := NewEngine()
	var progress int64
	e.SetWatchdog(50, 2, func() int64 { return progress })
	done := false
	e.Spawn("worker", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(25)
			progress++
		}
		done = true
	})
	if _, err := e.RunErr(); err != nil {
		t.Fatalf("RunErr = %v, want nil for a progressing run", err)
	}
	if !done {
		t.Error("worker did not finish")
	}
}
