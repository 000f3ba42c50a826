package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Time is a point in simulated time, measured in cycles.
type Time = int64

// event is a scheduled occurrence: either a plain callback or the
// resumption of a blocked proc.
type event struct {
	at    Time
	seq   uint64 // tie-break so equal-time events fire in schedule order
	fn    func()
	proc  *Proc
	epoch uint64 // wakeup generation; stale if != proc.epoch
}

// before reports whether ev fires ahead of an event at (at, seq):
// earlier time first, then schedule order.
func (ev *event) before(at Time, seq uint64) bool {
	return ev.at < at || ev.at == at && ev.seq < seq
}

// move copies o into ev a word at a time.
func (ev *event) move(o *event) {
	ev.at, ev.seq, ev.fn, ev.proc, ev.epoch = o.at, o.seq, o.fn, o.proc, o.epoch
}

// eventHeap is a binary min-heap of events by value, ordered by
// (at, seq). Events move in place and a word at a time: push writes a
// new event's fields into the slot where its sift-up stops, the event
// loop reads the top's fields through &events[0] before pop removes it,
// and the sifts copy with move. A whole 40-byte event, returned in
// registers or copied as a struct, is stored 8 bytes at a time and
// loaded 16 at a time, and a load that spans two recent stores cannot
// be forwarded from them: it stalls until they retire.
type eventHeap []event

// push adds an event, sifting it up from the new last slot: each
// parent that fires after it moves down one level.
//
//t3d:hotpath
func (h *eventHeap) push(at Time, seq uint64, fn func(), p *Proc, epoch uint64) {
	//lint:allow hotalloc the heap's backing array grows amortized-O(1) and is reused across the run; per-event cost is a slot store
	q := append(*h, event{})
	i := len(q) - 1
	for i > 0 {
		up := (i - 1) / 2
		if q[up].before(at, seq) {
			break
		}
		q[i].move(&q[up])
		i = up
	}
	ev := &q[i]
	ev.at, ev.seq, ev.fn, ev.proc, ev.epoch = at, seq, fn, p, epoch
	*h = q
}

// pop removes the earliest event, which the caller has already read in
// place at (*h)[0]. The heap must not be empty.
//
//t3d:hotpath
func (h *eventHeap) pop() {
	q := *h
	n := len(q) - 1
	if n > 0 {
		// Sift the last event down from the root, moving the earlier
		// child up at each level, and store it where it stops.
		last := &q[n]
		i := 0
		for {
			c := 2*i + 1
			if c >= n {
				break
			}
			if c+1 < n && q[c+1].before(q[c].at, q[c].seq) {
				c++
			}
			if !q[c].before(last.at, last.seq) {
				break
			}
			q[i].move(&q[c])
			i = c
		}
		q[i].move(last)
	}
	q[n] = event{} // drop the closure and proc references
	*h = q[:n]
}

// Engine is a discrete-event simulator. The zero value is not usable;
// create one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap

	procs   []*Proc
	running bool

	// Why the current run ended: dispatch or a failing proc's exit
	// records it, and RunErr reports it.
	stop      stopReason
	stopAt    Time  // stopLimit: time of the event beyond Limit
	stopErr   error // stopCancel: the poll's error
	stopProc  *Proc // stopPanic: the proc that panicked; nil for a callback
	stopPanic any   // stopPanic: the recovered value

	// Watchdog state (SetWatchdog).
	wdInterval Time
	wdStalls   int
	wdProbe    func() int64
	wdNext     Time
	wdLast     int64
	wdCount    int

	// Cancel-poll state (SetCancelPoll).
	cancelPoll  func() error
	cancelEvery int
	cancelCount int

	// Limit guards against runaway simulations; 0 means no limit.
	// Exceeding it surfaces as a *LimitError from RunErr (a panic from
	// Run), so hosting layers can budget simulated cycles per run.
	Limit Time

	// processed counts events popped across all runs — the engine's unit
	// of host work, reported by Events for throughput accounting.
	processed int64
}

// stopReason says why a run ended.
type stopReason int

const (
	stopDrained  stopReason = iota // no events left
	stopLimit                      // the next event lay beyond Limit
	stopLivelock                   // the watchdog saw no progress
	stopCancel                     // the cancel poll returned an error
	stopPanic                      // a proc body or a callback panicked
)

// NewEngine returns an engine with time zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at the given absolute time, which must not be in
// the past. fn runs inline in the event loop, in RunErr's loop or in the
// coroutine of whichever proc is parking, and must not block.
//
//t3d:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: At(%d) is in the past (now=%d)", t, e.now))
	}
	e.seq++
	e.events.push(t, e.seq, fn, nil, 0)
}

// After schedules fn to run d cycles from now.
//
//t3d:hotpath
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// scheduleEpoch arranges for p to resume at time t, tagged with the wakeup
// generation so stale events are skipped.
//
//t3d:hotpath
func (e *Engine) scheduleEpoch(p *Proc, t Time, epoch uint64) {
	e.seq++
	e.events.push(t, e.seq, nil, p, epoch)
}

// BlockedProc is one entry of a deadlock diagnostic: a proc that can
// never resume, the signal it is parked on, and when it parked.
type BlockedProc struct {
	Name    string
	Waiting string // name of the signal the proc is blocked on
	Since   Time   // simulated time at which it blocked
}

// DeadlockError reports that the event queue drained while non-daemon
// procs were still parked on signals that can never fire. The dump lists
// every stuck proc with its wait reason and blocked-at time, so the
// failure is actionable instead of a bare proc-name list.
type DeadlockError struct {
	Now     Time
	Blocked []BlockedProc
}

func (d *DeadlockError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sim: deadlock at t=%d — no events pending but %d proc(s) blocked:", d.Now, len(d.Blocked))
	for _, p := range d.Blocked {
		fmt.Fprintf(&b, "\n  %s: blocked on %q since t=%d (for %d cycles)",
			p.Name, p.Waiting, p.Since, d.Now-p.Since)
	}
	return b.String()
}

// LivelockError reports that the watchdog's progress probe stopped
// advancing while events kept firing — the signature of a retransmit
// storm or polling loop that will never converge.
type LivelockError struct {
	Now      Time
	Progress int64 // the stuck probe value
	Interval Time  // watchdog sampling interval
	Checks   int   // consecutive samples with no progress
}

func (l *LivelockError) Error() string {
	return fmt.Sprintf("sim: livelock at t=%d — progress probe stuck at %d for %d consecutive checks (%d cycles)",
		l.Now, l.Progress, l.Checks, Time(l.Checks)*l.Interval)
}

// ProcFailure reports that a proc body or an event callback panicked
// with an error value — the convention for simulated hardware faults
// that abort a run (for example a partitioned torus). RunErr returns it
// instead of panicking, so callers can errors.Is/As into the underlying
// cause. A panic with a non-error value still crashes the run: that is
// a bug, not a modeled failure.
type ProcFailure struct {
	Proc string // name of the failed proc; empty for a callback
	Err  error  // the error the proc or callback panicked with
}

func (f *ProcFailure) Error() string {
	if f.Proc == "" {
		return fmt.Sprintf("sim: event callback failed: %v", f.Err)
	}
	return fmt.Sprintf("sim: proc %q failed: %v", f.Proc, f.Err)
}

func (f *ProcFailure) Unwrap() error { return f.Err }

// LimitError reports that the engine's cycle Limit was reached: the
// next event lay beyond the budget. The simulation state is intact up
// to Now, but the run did not finish — hosting layers treat this as a
// per-run simulated-cycle deadline.
type LimitError struct {
	Limit Time // the armed budget
	At    Time // scheduled time of the event that crossed it
}

func (l *LimitError) Error() string {
	return fmt.Sprintf("sim: time limit %d exceeded (next event at t=%d)", l.Limit, l.At)
}

// SetCancelPoll installs a host-side escape hatch: every `every`
// processed events the engine calls poll, and a non-nil return aborts
// the run with that error from RunErr. This is the only sanctioned way
// for wall-clock concerns (job deadlines, client disconnects, process
// drain) to reach into a run: the poll runs in the event loop at
// deterministic points, in RunErr's loop or in a parking proc's
// coroutine, never mutates simulation state, and an unarmed engine is
// bit-identical to one polling a closure that returns nil. Pass a nil
// poll to disarm. After an aborted run the machine is dead; call
// Shutdown to reap its parked procs.
func (e *Engine) SetCancelPoll(every int, poll func() error) {
	if poll != nil && every <= 0 {
		panic("sim: cancel poll needs a positive event interval")
	}
	e.cancelPoll, e.cancelEvery, e.cancelCount = poll, every, 0
}

// SetWatchdog installs a quiescence watchdog: every interval cycles the
// engine samples progress(); if the value is unchanged for stalls
// consecutive samples while events are still firing, the run fails with
// a LivelockError. Pass a nil probe to disable. The probe must be cheap
// and side-effect free; it runs inline in the event loop, in RunErr's
// loop or in a parking proc's coroutine.
func (e *Engine) SetWatchdog(interval Time, stalls int, progress func() int64) {
	if progress != nil && (interval <= 0 || stalls <= 0) {
		panic("sim: watchdog needs a positive interval and stall count")
	}
	e.wdInterval, e.wdStalls, e.wdProbe = interval, stalls, progress
	e.wdNext = e.now + interval
	e.wdCount = 0
	if progress != nil {
		e.wdLast = progress()
	}
}

// Run processes events until the queue is empty or the optional Limit is
// reached. It returns the final simulated time. Run panics if, at the end,
// some proc is still blocked on a signal that can never fire (deadlock),
// if the watchdog detects livelock, or if any proc body panicked. RunErr
// is the variant that surfaces deadlock and livelock as errors.
func (e *Engine) Run() Time {
	t, err := e.RunErr()
	if err != nil {
		panic(err.Error())
	}
	return t
}

// RunErr is Run with structured failure reporting: deadlock and livelock
// are returned as *DeadlockError / *LivelockError, and a proc or a
// callback that panics with an error value is returned as a
// *ProcFailure, instead of panicking — so callers can inspect the
// failure programmatically. A callback that panics with any other value
// is re-raised here with its original value, whichever proc's park ran
// it.
//
// RunErr is the one loop that resumes procs: it runs the event loop
// until it reaches a proc's wakeup, then resumes that proc's coroutine
// until the proc yields the next proc to resume (or ends, when RunErr
// runs the event loop in its place). A handoff from one proc to another
// is thus two coroutine switches, through this loop, on one thread.
func (e *Engine) RunErr() (Time, error) {
	if e.running {
		panic("sim: Engine.Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	e.stop, e.stopErr, e.stopProc, e.stopPanic = stopDrained, nil, nil, nil
	for p := e.dispatch(); p != nil; {
		next, live := p.coro()
		if !live && e.stop == stopDrained {
			next = e.dispatch() // p returned: run the loop in its place
		}
		p = next
	}
	switch e.stop {
	case stopLimit:
		return e.now, &LimitError{Limit: e.Limit, At: e.stopAt}
	case stopLivelock:
		return e.now, &LivelockError{Now: e.now, Progress: e.wdLast,
			Interval: e.wdInterval, Checks: e.wdCount}
	case stopCancel:
		return e.now, e.stopErr
	case stopPanic:
		p := e.stopProc
		if err, ok := e.stopPanic.(error); ok {
			f := &ProcFailure{Err: err}
			if p != nil {
				f.Proc = p.name
			}
			return e.now, f
		}
		if p == nil {
			panic(e.stopPanic)
		}
		panic(fmt.Sprintf("sim: proc %q panicked: %v", p.name, e.stopPanic))
	}

	var stuck []BlockedProc
	for _, p := range e.procs {
		if p.state == procBlocked && !p.daemon {
			stuck = append(stuck, BlockedProc{Name: p.name, Waiting: p.waitingOn.Name(), Since: p.blockedSince})
		}
	}
	if len(stuck) > 0 {
		sort.Slice(stuck, func(i, j int) bool { return stuck[i].Name < stuck[j].Name })
		return e.now, &DeadlockError{Now: e.now, Blocked: stuck}
	}
	return e.now, nil
}

// dispatch is the event loop, run by RunErr and, inline in its
// coroutine, by a parking proc: it pops events in (at, seq) order,
// running callbacks inline, until it reaches the wakeup of a live proc,
// which it marks running and returns. It returns nil when the run is
// over, with the reason in e.stop. A panicking callback ends the run
// too: it is recovered here, so no recover in the body of the proc that
// is parking can see it, and RunErr reports it.
func (e *Engine) dispatch() (next *Proc) {
	defer e.recoverCallback()
	for len(e.events) > 0 {
		if e.cancelPoll != nil {
			e.cancelCount++
			if e.cancelCount >= e.cancelEvery {
				e.cancelCount = 0
				if err := e.cancelPoll(); err != nil {
					e.stop, e.stopErr = stopCancel, err
					return nil
				}
			}
		}
		ev := &e.events[0]
		at, fn, p, epoch := ev.at, ev.fn, ev.proc, ev.epoch
		e.events.pop()
		e.processed++
		if e.Limit > 0 && at > e.Limit {
			e.stop, e.stopAt = stopLimit, at
			return nil
		}
		if at < e.now {
			panic("sim: event in the past")
		}
		e.now = at
		if e.wdProbe != nil && e.now >= e.wdNext {
			for e.now >= e.wdNext {
				e.wdNext += e.wdInterval
			}
			if v := e.wdProbe(); v == e.wdLast {
				e.wdCount++
				if e.wdCount >= e.wdStalls {
					e.stop = stopLivelock
					return nil
				}
			} else {
				e.wdLast, e.wdCount = v, 0
			}
		}
		if p != nil {
			if p.state == procDone || p.state == procRunning || epoch != p.epoch {
				continue // stale wakeup (finished proc or superseded event)
			}
			p.state = procRunning
			p.epoch++ // invalidate any sibling wakeups for the old park
			return p
		}
		fn()
	}
	return nil
}

// recoverCallback is dispatch's deferred half: it ends the run on a
// callback panic, recording the value for RunErr to report.
func (e *Engine) recoverCallback() {
	if r := recover(); r != nil {
		e.stop, e.stopProc, e.stopPanic = stopPanic, nil, r
	}
}

// Events reports how many events the engine has processed across all
// runs: the host-side unit of simulation work (bench/ reports it as
// sim.events_per_point, _per_edge and _per_run).
func (e *Engine) Events() int64 { return e.processed }

// Shutdown reaps every live proc of a stopped engine. A run that ends
// early — cancel poll, cycle Limit, proc failure, deadlock — leaves its
// sibling procs parked in coroutines nothing will resume again; a
// long-running host (the job service) would leak one goroutine per PE
// per aborted run. Shutdown resumes each parked proc with the killed
// flag set, which makes it unwind via runtime.Goexit (running its
// deferred cleanups, skipping the rest of its body; a cleanup that parks
// again unwinds at once). The engine is unusable afterwards. Shutdown is
// idempotent and safe on a cleanly finished engine (every proc already
// done); it must not be called while Run is in progress.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown called during Run")
	}
	for _, p := range e.procs {
		if p.state != procDone {
			p.killed = true
			// iter.Pull forwards the teardown's Goexit to whoever
			// resumed the coroutine, so resume it from a goroutine
			// that may die.
			reaped := make(chan struct{})
			go func() {
				defer close(reaped)
				p.coro()
			}()
			<-reaped
		}
	}
	e.procs = nil
	e.events = nil
}
