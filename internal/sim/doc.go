// Package sim provides a deterministic discrete-event simulation kernel.
//
// Time is measured in integer cycles. An Engine owns an event queue (a
// binary min-heap of events by value, ordered by time and then by
// scheduling order) and a set of Procs (simulated threads of control).
// Procs are goroutines that run one at a time: a single execution token
// passes between the Run caller and the procs, so simulations are fully
// deterministic: events at equal times fire in scheduling order.
//
// Whichever goroutine holds the token runs the event loop. A proc that
// parks pops the next events itself: plain callbacks run inline, its own
// wakeup lets it continue with no goroutine switch, and another proc's
// wakeup hands the token straight to that proc. The Run caller gets the
// token back only when the run ends.
//
// A Proc advances its own time with Wait and WaitUntil, blocks on a Signal
// with WaitSignal, and may spawn further procs. Plain callbacks can be
// scheduled with Engine.At; they run inline in the event loop, on
// whichever goroutine holds the token, and must not block. A callback
// that panics ends the run and is re-raised from Run on the caller's
// goroutine, never seen by the proc that happened to run it.
//
// The kernel is intentionally small: everything machine-specific (caches,
// DRAM banks, networks, the T3D shell) is built on top of it in sibling
// packages.
package sim
