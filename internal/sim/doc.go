// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is measured in integer cycles. An Engine owns an event queue (a
// binary min-heap of events by value, ordered by time and then by
// scheduling order) and a set of Procs (simulated threads of control).
// Each proc is a coroutine (iter.Pull), and Engine.RunErr is the one loop
// that resumes them, so procs run one at a time and simulations are fully
// deterministic: events at equal times fire in scheduling order.
//
// The event loop runs in RunErr and in whichever proc is parking. A proc
// that parks pops the next events itself: plain callbacks run inline, and
// its own wakeup lets it continue with no switch. Another proc's wakeup
// makes it yield that proc to RunErr's loop, which resumes it: a handoff
// is two coroutine switches on one thread, with no trip through the Go
// scheduler. When a proc's body returns, RunErr runs the loop in its
// place.
//
// A Proc advances its own time with Wait and WaitUntil, blocks on a Signal
// with WaitSignal, and may spawn further procs. Plain callbacks can be
// scheduled with Engine.At; they run inline in the event loop and must
// not block. A callback that panics ends the run and is re-raised from
// Run, never seen by the proc whose park happened to run it.
//
// The kernel is intentionally small: everything machine-specific (caches,
// DRAM banks, networks, the T3D shell) is built on top of it in sibling
// packages.
package sim
