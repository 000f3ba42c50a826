package sim

import (
	"fmt"
	"runtime"
)

type procState int

const (
	procReady   procState = iota // has a scheduled wakeup event
	procRunning                  // currently executing
	procBlocked                  // parked on a Signal, no scheduled event
	procDone                     // body returned
)

// Proc is a simulated thread of control. Procs run one at a time, each
// on its own goroutine, passing the engine's execution token between
// them; all methods must be called from the proc's own body.
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	state  procState

	// epoch distinguishes wakeup generations: any event scheduled for an
	// earlier park is stale and skipped by the engine.
	epoch       uint64
	sigFired    bool
	daemon      bool
	interrupted bool
	killed      bool // set by Engine.Shutdown; the next resume unwinds via Goexit

	// Deadlock diagnostics: what the proc is blocked on and since when
	// (meaningful only while state == procBlocked).
	waitLabel    string
	blockedSince Time
}

// Name returns the proc's name (used in deadlock reports).
func (p *Proc) Name() string { return p.name }

// Engine returns the engine this proc runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// park blocks p until its next wakeup. p holds the execution token, so
// it runs the event loop itself: if its own wakeup comes next it returns
// with no goroutine switch, otherwise it hands the token on and waits
// for it to come back.
func (p *Proc) park(st procState) {
	if p.killed {
		// A teardown defer parked again during Engine.Shutdown: keep
		// unwinding instead of running events.
		runtime.Goexit()
	}
	p.state = st
	e := p.eng
	if next := e.dispatch(); next != p {
		e.handoff(next)
		<-p.resume
		if p.killed {
			// Engine.Shutdown is reaping this proc: terminate the
			// goroutine, running deferred cleanups on the way out. Goexit
			// (not a panic) so no recover in user code can intercept the
			// teardown.
			runtime.Goexit()
		}
	}
}

// exit is deferred by p's goroutine and runs when its body returns,
// panics or is unwound by Shutdown. It passes the token on: back to the
// Shutdown caller when p was killed, back to the Run caller with the
// failure recorded when p panicked, and otherwise to whatever the event
// loop reaches next.
func (p *Proc) exit() {
	r := recover()
	p.state = procDone
	e := p.eng
	switch {
	case p.killed:
		e.done <- struct{}{}
	case r != nil:
		e.stop, e.stopProc, e.stopPanic = stopPanic, p, r
		e.done <- struct{}{}
	default:
		e.handoff(e.dispatch())
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
	p.waitLabel, p.blockedSince = s.name, p.eng.now
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
	p.waitLabel, p.blockedSince = s.name, p.eng.now
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
type Signal struct {
	name    string
	waiters []waiter
}

type waiter struct {
	proc  *Proc
	epoch uint64
}

// NewSignal returns a named signal.
//
//t3d:hotpath
//lint:allow hotalloc one signal object per outstanding transaction; header pooling is ROADMAP item 1(c) (closure-free shell transactions)
func NewSignal(name string) *Signal { return &Signal{name: name} }

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
