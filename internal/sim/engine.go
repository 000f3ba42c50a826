package sim

import (
	"container/heap"
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

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }

// Push is the container/heap grow half of the event kernel.
//
//t3d:hotpath
func (h *eventHeap) Push(x any) {
	//lint:allow hotalloc the heap's backing array grows amortized-O(1) and is reused across the run; per-event cost is a slot store
	*h = append(*h, x.(*event))
}

// Pop is the container/heap shrink half of the event kernel.
//
//t3d:hotpath
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is not usable;
// create one with NewEngine.
type Engine struct {
	now    Time
	seq    uint64
	events eventHeap

	procs   []*Proc
	yield   chan yieldMsg // procs -> engine handoff
	running bool
	tracer  Tracer

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

type yieldKind int

const (
	yieldBlocked yieldKind = iota // proc parked itself (event or signal pending)
	yieldDone                     // proc body returned
	yieldPanic                    // proc body panicked
)

type yieldMsg struct {
	kind  yieldKind
	proc  *Proc
	panic any
}

// NewEngine returns an engine with time zero and no pending events.
func NewEngine() *Engine {
	return &Engine{yield: make(chan yieldMsg)}
}

// Now reports the current simulated time in cycles.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at the given absolute time, which must not be in
// the past. fn runs inline in the engine loop and must not block.
//
//t3d:hotpath
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		//lint:allow hotalloc misuse-panic path only; the steady-state schedule never formats
		panic(fmt.Sprintf("sim: At(%d) is in the past (now=%d)", t, e.now))
	}
	e.seq++
	//lint:allow hotalloc one event header per scheduled callback is the DES cost model; pooling popped headers is ROADMAP item 4 (event-kernel costs)
	heap.Push(&e.events, &event{at: t, seq: e.seq, fn: fn})
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
	//lint:allow hotalloc one event header per proc wakeup is the DES cost model; pooling popped headers is ROADMAP item 4 (event-kernel costs)
	heap.Push(&e.events, &event{at: t, seq: e.seq, proc: p, epoch: epoch})
}

// Spawn creates a proc named name running body. The proc starts when the
// engine reaches the current time in its event loop (immediately if the
// engine is already running). Spawn may be called before Run or from
// within a running proc.
func (e *Engine) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		eng:    e,
		name:   name,
		resume: make(chan struct{}),
	}
	e.procs = append(e.procs, p)
	go func() {
		<-p.resume
		defer func() {
			if r := recover(); r != nil {
				p.state = procDone
				e.yield <- yieldMsg{kind: yieldPanic, proc: p, panic: r}
				return
			}
			p.state = procDone
			e.yield <- yieldMsg{kind: yieldDone, proc: p}
		}()
		if p.killed {
			return // reaped by Shutdown before ever running
		}
		body(p)
	}()
	p.state = procReady
	p.epoch = 1
	e.scheduleEpoch(p, e.now, p.epoch)
	return p
}

// SpawnDaemon is like Spawn, but the proc is exempt from deadlock
// detection: it is expected to idle forever (device drain loops, pollers).
func (e *Engine) SpawnDaemon(name string, body func(p *Proc)) *Proc {
	p := e.Spawn(name, body)
	p.daemon = true
	return p
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

// ProcFailure reports that a proc body panicked with an error value —
// the convention for simulated hardware faults that abort a run (for
// example a partitioned torus). RunErr returns it instead of panicking,
// so callers can errors.Is/As into the underlying cause. Procs that
// panic with a non-error value still crash the run: that is a bug, not
// a modeled failure.
type ProcFailure struct {
	Proc string // name of the failed proc
	Err  error  // the error the proc panicked with
}

func (f *ProcFailure) Error() string {
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
// drain) to reach into a run: the poll runs on the engine goroutine at
// deterministic points, never mutates simulation state, and an unarmed
// engine is bit-identical to one polling a closure that returns nil.
// Pass a nil poll to disarm. After an aborted run the machine is dead;
// call Shutdown to reap its proc goroutines.
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
// and side-effect free; it runs inline in the event loop.
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
// are returned as *DeadlockError / *LivelockError, and a proc that panics
// with an error value is returned as a *ProcFailure, instead of
// panicking — so callers can inspect the failure programmatically.
func (e *Engine) RunErr() (Time, error) {
	if e.running {
		panic("sim: Engine.Run called reentrantly")
	}
	e.running = true
	defer func() { e.running = false }()

	for len(e.events) > 0 {
		if e.cancelPoll != nil {
			e.cancelCount++
			if e.cancelCount >= e.cancelEvery {
				e.cancelCount = 0
				if err := e.cancelPoll(); err != nil {
					return e.now, err
				}
			}
		}
		ev := heap.Pop(&e.events).(*event)
		e.processed++
		if e.Limit > 0 && ev.at > e.Limit {
			return e.now, &LimitError{Limit: e.Limit, At: ev.at}
		}
		if ev.at < e.now {
			panic("sim: event in the past")
		}
		e.now = ev.at
		if e.wdProbe != nil && e.now >= e.wdNext {
			for e.now >= e.wdNext {
				e.wdNext += e.wdInterval
			}
			if v := e.wdProbe(); v == e.wdLast {
				e.wdCount++
				if e.wdCount >= e.wdStalls {
					return e.now, &LivelockError{Now: e.now, Progress: v,
						Interval: e.wdInterval, Checks: e.wdCount}
				}
			} else {
				e.wdLast, e.wdCount = v, 0
			}
		}
		if ev.proc != nil {
			p := ev.proc
			if p.state == procDone || p.state == procRunning || ev.epoch != p.epoch {
				continue // stale wakeup (finished proc or superseded event)
			}
			p.state = procRunning
			p.epoch++ // invalidate any sibling wakeups for the old park
			p.resume <- struct{}{}
			msg := <-e.yield
			if msg.kind == yieldPanic {
				if err, ok := msg.panic.(error); ok {
					return e.now, &ProcFailure{Proc: msg.proc.name, Err: err}
				}
				panic(fmt.Sprintf("sim: proc %q panicked: %v", msg.proc.name, msg.panic))
			}
			continue
		}
		ev.fn()
	}

	var stuck []BlockedProc
	for _, p := range e.procs {
		if p.state == procBlocked && !p.daemon {
			stuck = append(stuck, BlockedProc{Name: p.name, Waiting: p.waitLabel, Since: p.blockedSince})
		}
	}
	if len(stuck) > 0 {
		sort.Slice(stuck, func(i, j int) bool { return stuck[i].Name < stuck[j].Name })
		return e.now, &DeadlockError{Now: e.now, Blocked: stuck}
	}
	return e.now, nil
}

// Idle reports whether the engine has no pending events.
func (e *Engine) Idle() bool { return len(e.events) == 0 }

// Events reports how many events the engine has processed across all
// runs: the host-side unit of simulation work (bench/ reports it as
// sim.events_per_point, _per_edge and _per_run).
func (e *Engine) Events() int64 { return e.processed }

// Shutdown reaps every live proc goroutine of a stopped engine. A run
// that ends early — cancel poll, cycle Limit, proc failure, deadlock —
// abandons its sibling procs parked on resume channels that will never
// fire again; a long-running host (the job service) would leak one
// goroutine per PE per aborted run. Shutdown wakes each parked proc
// with the killed flag set, which makes it unwind via runtime.Goexit
// (running its deferred cleanups, skipping the rest of its body) and
// report done. The engine is unusable afterwards. Shutdown is
// idempotent and safe on a cleanly finished engine (every proc already
// done); it must not be called while Run is in progress.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown called during Run")
	}
	for _, p := range e.procs {
		p.killed = true
		// A teardown defer may legally park once more (yieldBlocked);
		// keep resuming until the goroutine reports done.
		for p.state != procDone {
			p.state = procRunning
			p.resume <- struct{}{}
			<-e.yield
		}
	}
	e.procs = nil
	e.events = nil
}
