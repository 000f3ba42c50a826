package sim

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// countGoroutines samples the goroutine count after giving exiting
// goroutines a moment to unwind.
func countGoroutines() int {
	runtime.GC()
	time.Sleep(10 * time.Millisecond)
	return runtime.NumGoroutine()
}

// TestShutdownReapsAbandonedProcs is the leak contract: a run aborted
// by a proc failure leaves sibling procs parked forever, and Shutdown
// must terminate every one of their goroutines.
func TestShutdownReapsAbandonedProcs(t *testing.T) {
	before := countGoroutines()
	boom := errors.New("boom")
	for i := 0; i < 8; i++ {
		e := NewEngine()
		sig := NewSignal("never")
		for j := 0; j < 16; j++ {
			e.Spawn("waiter", func(p *Proc) { p.WaitSignal(sig) })
		}
		e.Spawn("failer", func(p *Proc) {
			p.Wait(10)
			panic(boom)
		})
		_, err := e.RunErr()
		var pf *ProcFailure
		if !errors.As(err, &pf) || !errors.Is(err, boom) {
			t.Fatalf("RunErr = %v, want ProcFailure wrapping boom", err)
		}
		e.Shutdown()
		e.Shutdown() // idempotent
	}
	after := countGoroutines()
	if after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestCallbackPanicOnProcGoroutine: a callback that panics while a
// proc's goroutine holds the token (popped by that proc's park) is
// re-raised from Run on the caller's goroutine with its original value,
// a recover in the proc's body never sees it, and Shutdown afterwards
// reaps every goroutine.
func TestCallbackPanicOnProcGoroutine(t *testing.T) {
	type boom struct{ run int }
	before := countGoroutines()
	for i := 0; i < 8; i++ {
		e := NewEngine()
		sig := NewSignal("never")
		for j := 0; j < 4; j++ {
			e.Spawn("waiter", func(p *Proc) { p.WaitSignal(sig) })
		}
		var seen any
		e.Spawn("holder", func(p *Proc) {
			defer func() { seen = recover() }()
			e.At(5, func() { panic(boom{i}) })
			p.Wait(10)
		})
		got := func() (r any) {
			defer func() { r = recover() }()
			e.Run()
			return nil
		}()
		if got != (boom{i}) {
			t.Fatalf("Run panicked with %v, want %v", got, boom{i})
		}
		e.Shutdown()
		if seen != nil {
			t.Fatalf("the proc body recovered %v", seen)
		}
	}
	after := countGoroutines()
	if after > before+2 {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestShutdownRunsTeardownDefers: a reaped proc unwinds via Goexit, so
// its deferred cleanups still run and a recover cannot intercept it.
func TestShutdownRunsTeardownDefers(t *testing.T) {
	e := NewEngine()
	sig := NewSignal("never")
	cleaned := false
	e.Spawn("waiter", func(p *Proc) {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("teardown delivered as panic %v, want Goexit", r)
			}
			cleaned = true
		}()
		p.WaitSignal(sig)
		t.Error("body continued past the kill point")
	})
	e.Spawn("failer", func(p *Proc) { panic(errors.New("abort")) })
	if _, err := e.RunErr(); err == nil {
		t.Fatal("want proc failure")
	}
	e.Shutdown()
	if !cleaned {
		t.Fatal("deferred cleanup did not run during Shutdown")
	}
}

// TestShutdownTeardownThatParksAgain: a cleanup that parks while its
// proc is being reaped unwinds at once, the cleanups deferred before it
// still run, and the goroutine exits.
func TestShutdownTeardownThatParksAgain(t *testing.T) {
	before := countGoroutines()
	e := NewEngine()
	sig := NewSignal("never")
	outer, resumed := false, false
	e.Spawn("waiter", func(p *Proc) {
		defer func() { outer = true }()
		defer func() {
			p.Wait(5)
			resumed = true
		}()
		p.WaitSignal(sig)
	})
	e.Spawn("failer", func(p *Proc) { panic(errors.New("abort")) })
	if _, err := e.RunErr(); err == nil {
		t.Fatal("want proc failure")
	}
	e.Shutdown()
	if !outer || resumed {
		t.Fatalf("outer cleanup ran = %v, parked cleanup resumed = %v; want true, false", outer, resumed)
	}
	if after := countGoroutines(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestProcGoexitUnwindsRunCaller pins what a runtime.Goexit in a proc
// body (as t.FailNow calls it) does: the proc's defers run, the Goexit
// carries on through the goroutine that called RunErr, which never
// returns, and a later Shutdown reaps the procs left parked.
func TestProcGoexitUnwindsRunCaller(t *testing.T) {
	before := countGoroutines()
	e := NewEngine()
	never := NewSignal("never")
	e.Spawn("sibling", func(p *Proc) { p.WaitSignal(never) })
	procDeferred := false
	e.Spawn("exiter", func(p *Proc) {
		defer func() { procDeferred = true }()
		p.Wait(3)
		runtime.Goexit()
	})
	returned, callerDeferred := false, false
	caller := make(chan struct{})
	go func() {
		defer close(caller)
		defer func() { callerDeferred = true }()
		e.RunErr()
		returned = true
	}()
	<-caller
	if !procDeferred || returned || !callerDeferred {
		t.Fatalf("proc defers ran = %v, RunErr returned = %v, caller defers ran = %v; want true, false, true",
			procDeferred, returned, callerDeferred)
	}
	if e.Now() != 3 {
		t.Errorf("run stopped at t=%d, want 3", e.Now())
	}
	e.Shutdown()
	if after := countGoroutines(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestShutdownNeverStartedProc covers procs spawned but reaped before
// their first resume: the body must not run at all.
func TestShutdownNeverStartedProc(t *testing.T) {
	e := NewEngine()
	e.Spawn("failer", func(p *Proc) { panic(errors.New("abort")) })
	ran := false
	e.Spawn("late", func(p *Proc) { ran = true })
	if _, err := e.RunErr(); err == nil {
		t.Fatal("want proc failure")
	}
	e.Shutdown()
	if ran {
		t.Fatal("reaped proc body ran")
	}
}

// TestCancelPollAborts: the host escape hatch stops the run with the
// poll's error, and an armed-but-quiet poll perturbs nothing.
func TestCancelPollAborts(t *testing.T) {
	canceled := errors.New("host canceled")
	run := func(poll func() error) (Time, error) {
		e := NewEngine()
		if poll != nil {
			e.SetCancelPoll(4, poll)
		}
		e.Spawn("ticker", func(p *Proc) {
			for i := 0; i < 1000; i++ {
				p.Wait(1)
			}
		})
		end, err := e.RunErr()
		e.Shutdown()
		return end, err
	}

	baseEnd, err := run(nil)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	quietEnd, err := run(func() error { return nil })
	if err != nil || quietEnd != baseEnd {
		t.Fatalf("quiet poll perturbed the run: end=%d err=%v (want %d, nil)", quietEnd, err, baseEnd)
	}
	calls := 0
	end, err := run(func() error {
		calls++
		if calls >= 10 {
			return canceled
		}
		return nil
	})
	if !errors.Is(err, canceled) {
		t.Fatalf("err = %v, want the poll's error", err)
	}
	if end >= baseEnd {
		t.Fatalf("cancel did not cut the run short (end=%d, full=%d)", end, baseEnd)
	}
}

// TestLimitReturnsStructuredError: exceeding Limit is a *LimitError
// from RunErr, not a panic, so hosts can budget cycles per job.
func TestLimitReturnsStructuredError(t *testing.T) {
	e := NewEngine()
	e.Limit = 50
	e.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Wait(1)
		}
	})
	end, err := e.RunErr()
	var le *LimitError
	if !errors.As(err, &le) {
		t.Fatalf("err = %v, want *LimitError", err)
	}
	if le.Limit != 50 || end > 50 {
		t.Fatalf("limit error %+v at end=%d, want budget 50 respected", le, end)
	}
	e.Shutdown()
}
