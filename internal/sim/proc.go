//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime"
)

type procState int

const (
	procReady   procState = iota // has a scheduled wakeup event
	procRunning                  // currently executing
	procBlocked                  // parked on a Signal, no scheduled event
	procDone                     // body returned
)

// Proc is a simulated thread of control. Each proc is a coroutine that
// only RunErr's loop resumes (and Shutdown, to reap it), so procs run
// one at a time and switch without the Go scheduler; all methods must be
// called from the proc's own body.
type Proc struct {
	eng   *Engine
	name  string
	coro  func() (*Proc, bool) // runs p until it yields the next proc; false once p has ended
	yield func(*Proc) bool     // suspends p, handing the next proc to RunErr's loop
	state procState

	// epoch distinguishes wakeup generations: any event scheduled for an
	// earlier park is stale and skipped by the engine.
	epoch       uint64
	sigFired    bool
	daemon      bool
	interrupted bool
	killed      bool // set by Engine.Shutdown; p unwinds via Goexit when next resumed

	// Deadlock diagnostics: what the proc is blocked on and since when
	// (meaningful only while state == procBlocked).
	waitingOn    *Signal
	blockedSince Time
}

// Spawn creates a proc named name running body. The proc starts when the
// engine reaches the current time in its event loop (immediately if the
// engine is already running). Spawn may be called before Run or from
// within a running proc.
//
// body runs in a coroutine (iter.Pull) that RunErr resumes. A panic in
// body ends the run and is reported by RunErr. A body that calls
// runtime.Goexit, as t.FailNow does, unwinds the goroutine that called
// Run as well: Run never returns, that goroutine's deferred calls run,
// and the procs left parked wait for Shutdown. So a t.Fatal in a proc
// body stops the test that called Run, as package testing documents.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.coro, _ = iter.Pull(func(yield func(*Proc) bool) {
		p.yield = yield
		defer p.exit()
		if !p.killed { // reaped by Shutdown before ever running
			body(p)
		}
	})
	e.procs = append(e.procs, p)
	p.state = procReady
	p.epoch = 1
	e.scheduleEpoch(p, e.now, p.epoch)
	return p
}

// SpawnDaemon is like Spawn, but the proc is exempt from deadlock
// detection: it is expected to idle forever. Only tests spawn one: the
// zero-allocation tests in engine_test.go and splitc's runtime_test.go
// keep a proc parked across rounds, where a plain proc would make each
// round's end build a deadlock report, which allocates; shell_test.go's
// message receiver loops forever the same way.
func (e *Engine) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	p := e.Spawn(name, body)
	p.daemon = true
	return p
}

// Name returns the proc's name (used in deadlock reports).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park blocks p until its next wakeup. p runs the event loop itself: if
// its own wakeup comes next it returns with no switch, otherwise it
// yields the next proc (nil when the run is over) to RunErr's loop, which
// resumes that proc, and waits there until the loop resumes p.
func (p *Proc) park(st procState) {
	if p.killed {
		// A teardown defer parked again during Engine.Shutdown: keep
		// unwinding instead of running events.
		runtime.Goexit()
	}
	p.state = st
	if next := p.eng.dispatch(); next != p {
		p.yield(next)
		if p.killed {
			// Engine.Shutdown is reaping this proc: end the coroutine,
			// running deferred cleanups on the way out. Goexit (not a
			// panic) so no recover in user code can intercept the
			// teardown.
			runtime.Goexit()
		}
	}
}

// exit is deferred by p's coroutine and runs when its body returns,
// panics or is unwound. It marks p done and, when p panicked outside a
// Shutdown, records the failure for RunErr, which ends the run.
func (p *Proc) exit() {
	r := recover()
	p.state = procDone
	if r != nil && !p.killed {
		e := p.eng
		e.stop, e.stopProc, e.stopPanic = stopPanic, p, r
	}
}

// Wait advances the proc's time by d cycles.
//
//t3d:hotpath
func (p *Proc) Wait(d Time) {
	if d < 0 {
		panic(fmt.Sprintf("sim: Wait(%d) negative", d))
	}
	if d == 0 {
		return
	}
	p.epoch++
	p.eng.scheduleEpoch(p, p.eng.now+d, p.epoch)
	p.park(procReady)
}

// WaitUntil blocks the proc until absolute time t. If t is not after the
// current time it returns immediately.
func (p *Proc) WaitUntil(t Time) {
	if d := t - p.eng.now; d > 0 {
		p.Wait(d)
	}
}

// Yield reschedules the proc at the current time, letting other
// equal-time events run first.
func (p *Proc) Yield() {
	p.epoch++
	p.eng.scheduleEpoch(p, p.eng.now, p.epoch)
	p.park(procReady)
}

// WaitSignal blocks until s fires.
//
//t3d:hotpath
func (p *Proc) WaitSignal(s *Signal) {
	p.checkInterrupt()
	p.epoch++
	p.waitingOn, p.blockedSince = s, p.eng.now
	//lint:allow hotalloc one waiter record per block; the per-signal slice is reused across fires, so the append is an amortized slot store
	s.waiters = append(s.waiters, waiter{p, p.epoch})
	p.park(procBlocked)
	p.checkInterrupt()
}

// WaitSignalTimeout blocks until s fires or d cycles elapse. It reports
// whether the signal fired (as opposed to the timeout expiring).
//
//t3d:hotpath
func (p *Proc) WaitSignalTimeout(s *Signal, d Time) bool {
	p.checkInterrupt()
	if d <= 0 {
		return false
	}
	p.epoch++
	p.sigFired = false
	p.waitingOn, p.blockedSince = s, p.eng.now
	//lint:allow hotalloc one waiter record per block; the per-signal slice is reused across fires, so the append is an amortized slot store
	s.waiters = append(s.waiters, waiter{p, p.epoch})
	p.eng.scheduleEpoch(p, p.eng.now+d, p.epoch)
	p.park(procBlocked)
	p.checkInterrupt()
	return p.sigFired
}

// InterruptSignal is the panic value a signal wait raises after the proc
// has been interrupted with Interrupt. It deliberately does not implement
// error: an interrupt that escapes its recovery driver is a program bug
// and should crash the run loudly, not surface as a recoverable failure.
type InterruptSignal struct {
	Proc string // name of the interrupted proc
}

//t3d:hotpath
func (p *Proc) checkInterrupt() {
	if p.interrupted {
		panic(InterruptSignal{Proc: p.name})
	}
}

// Interrupt marks the proc for asynchronous abort: if it is blocked on a
// signal it is woken immediately, and its next (or current) WaitSignal /
// WaitSignalTimeout panics with InterruptSignal{}. Pure time waits are
// unaffected, so hardware-drain loops still quiesce normally. Interrupt
// is safe to call from event context; it is a no-op on a done proc. The
// rollback machinery in higher layers recovers the panic — procs that are
// not part of a recovery domain should never be interrupted.
func (p *Proc) Interrupt() {
	if p.state == procDone {
		return
	}
	p.interrupted = true
	if p.state == procBlocked {
		p.sigFired = false
		p.state = procReady
		p.eng.scheduleEpoch(p, p.eng.now, p.epoch)
	}
}

// ClearInterrupt re-arms the proc after an interrupt has been recovered.
func (p *Proc) ClearInterrupt() { p.interrupted = false }

// Interrupted reports whether an interrupt is pending on the proc.
func (p *Proc) Interrupted() bool { return p.interrupted }

// Signal is a broadcast wakeup point: any number of procs may block on it
// and are all released when it fires. Signals carry no state; a fire with
// no waiters is a no-op (use a separate flag for level-sensitive waits).
//
// A signal's name only labels deadlock dumps. A model embeds its signals
// by value and names them with SetName or SetNamef, which store what
// they are given: the name is formatted only when a dump shows it.
type Signal struct {
	name     string // the name, or with numbered, a format for num
	num      int
	numbered bool
	waiters  []waiter
}

type waiter struct {
	proc  *Proc
	epoch uint64
}

// NewSignal returns a named signal.
func NewSignal(name string) *Signal { return &Signal{name: name} }

// SetName names s.
func (s *Signal) SetName(name string) { s.name = name }

// SetNamef names s fmt.Sprintf(format, n), formatted when it is read.
func (s *Signal) SetNamef(format string, n int) { s.name, s.num, s.numbered = format, n, true }

// Name returns the signal's name.
func (s *Signal) Name() string {
	if s.numbered {
		return fmt.Sprintf(s.name, s.num)
	}
	return s.name
}

// Fire wakes all procs currently blocked on the signal. The wakeups are
// scheduled at the current time and run in blocking order.
func (s *Signal) Fire(e *Engine) {
	for _, w := range s.waiters {
		if w.proc.epoch != w.epoch || w.proc.state != procBlocked {
			continue // stale: proc already resumed some other way
		}
		w.proc.sigFired = true
		w.proc.state = procReady
		e.scheduleEpoch(w.proc, e.now, w.epoch)
	}
	s.waiters = s.waiters[:0]
}

// Await blocks p until cond() is true, re-testing each time s fires.
// It tests once before blocking, so a condition that already holds
// returns immediately.
func Await(p *Proc, s *Signal, cond func() bool) {
	for !cond() {
		p.WaitSignal(s)
	}
}
