package splitc

import (
	"repro/internal/addr"
	"repro/internal/shell"
)

// Get initiates a split-phase read of the word at g into the local
// address dst. The value is undefined until Sync returns (§5.1). Remote
// gets ride the binding-prefetch FIFO; the runtime keeps the table of
// target addresses the hardware queue cannot hold (§5.4), draining
// automatically when the 16-entry FIFO fills.
func (c *Ctx) Get(dst int64, g GlobalPtr) {
	c.Gets++
	c.Compute(PtrOpCost)
	if g.PE() == c.MyPE() {
		// A local get completes immediately.
		v := c.Node.CPU.Load64(c.P, g.Local())
		c.Node.CPU.Store64(c.P, dst, v)
		return
	}
	if len(c.gets) >= c.Node.Shell.Config().PrefetchEntries {
		c.drainGets()
	}
	idx := c.bind(g.PE(), false)
	c.Compute(c.rt.Cfg.GetTableCost) // stash dst in the runtime table
	c.gets = append(c.gets, dst)
	c.Node.CPU.FetchHint(c.P, addr.Make(idx, g.Local()))
}

// drainGets pops every outstanding prefetch and stores it to its target.
// Completed entries are retired one at a time rather than in a final
// truncation, so an unwind mid-drain (a rollback interrupt while
// PopPrefetch waits on the response) leaves the remaining table still
// matching the shell's FIFO exactly.
func (c *Ctx) drainGets() {
	if len(c.gets) == 0 {
		return
	}
	// The memory barrier guarantees all fetch hints have left the write
	// buffer — popping earlier is undefined (§5.2).
	c.Node.CPU.MB(c.P)
	for len(c.gets) > 0 {
		v := c.Node.Shell.PopPrefetch(c.P)
		dst := c.gets[0]
		c.gets = c.gets[:copy(c.gets, c.gets[1:])]
		c.Node.CPU.Store64(c.P, dst, v)
	}
}

// PendingGets reports the number of outstanding split-phase reads.
func (c *Ctx) PendingGets() int { return len(c.gets) }

// Put initiates a split-phase write of v to g: annex setup, a
// non-blocking store, and bookkeeping — ≈ 45 cycles (§5.4), with
// completion deferred to Sync.
func (c *Ctx) Put(g GlobalPtr, v uint64) {
	c.Puts++
	c.Compute(PtrOpCost)
	if g.PE() == c.MyPE() {
		c.Node.CPU.Store64(c.P, g.Local(), v)
		return
	}
	if c.rt.Cfg.Reliable {
		c.recordWrite(g, v)
	}
	idx := c.bind(g.PE(), false)
	c.Compute(c.rt.Cfg.PutCheckCost)
	c.Node.CPU.Store64(c.P, addr.Make(idx, g.Local()), v)
}

// Sync waits for all outstanding split-phase operations — gets, puts, and
// any asynchronous bulk transfers — to complete (§5.1).
func (c *Ctx) Sync() {
	c.Syncs++
	c.drainGets()
	c.Node.CPU.MB(c.P)
	c.Node.Shell.WaitWritesComplete(c.P)
	// BLTPoisoned: a transfer that already completed may hold an
	// unconsumed ECC tag; BLTWait delivers the trap here, at the
	// completion point, rather than letting it go stale.
	if c.Node.Shell.BLTBusy() || c.Node.Shell.BLTPoisoned() {
		c.Node.Shell.BLTWait(c.P)
	}
	c.settleWrites()
	c.settleAudits()
}

// Store is the Split-C := operator: a one-way write with extremely weak
// completion semantics (§7.1). On the T3D it is "essentially a put" —
// the hardware always acknowledges — but waiting is deferred to
// AllStoreSync, so stores pipeline back to back.
func (c *Ctx) Store(g GlobalPtr, v uint64) {
	c.Stores++
	c.Compute(PtrOpCost)
	if g.PE() == c.MyPE() {
		c.Node.CPU.Store64(c.P, g.Local(), v)
		return
	}
	if c.rt.Cfg.Reliable {
		c.recordWrite(g, v)
	}
	idx := c.bind(g.PE(), false)
	c.Compute(c.rt.Cfg.PutCheckCost)
	c.Node.CPU.Store64(c.P, addr.Make(idx, g.Local()), v)
}

// AllStoreSync completes a phase of stores machine-wide: each processor
// waits for its own stores to be acknowledged, then crosses the fuzzy
// hardware barrier (§7.5). All processors must call it.
func (c *Ctx) AllStoreSync() {
	c.Node.CPU.MB(c.P)
	c.Node.Shell.WaitWritesComplete(c.P)
	c.settleWrites()
	c.settleAudits()
	tk := c.Node.Shell.BarrierStart(c.P)
	c.Node.Shell.BarrierEnd(c.P, tk)
}

// Barrier is the Split-C global barrier: it first completes this
// processor's outstanding global operations, then crosses the hardware
// barrier. The fast native barrier composes with remote memory access
// here, unlike on many other Split-C platforms (§7.5).
func (c *Ctx) Barrier() {
	c.drainGets()
	c.Node.CPU.MB(c.P)
	c.Node.Shell.WaitWritesComplete(c.P)
	if c.Node.Shell.BLTBusy() || c.Node.Shell.BLTPoisoned() {
		c.Node.Shell.BLTWait(c.P)
	}
	c.settleWrites()
	c.settleAudits()
	tk := c.Node.Shell.BarrierStart(c.P)
	c.Node.Shell.BarrierEnd(c.P, tk)
}

// FuzzyBarrierStart arms the hardware barrier and returns, letting the
// caller place work between the start- and end-barrier (§7.5).
func (c *Ctx) FuzzyBarrierStart() shell.BarrierTicket {
	return c.Node.Shell.BarrierStart(c.P)
}

// FuzzyBarrierEnd completes a fuzzy barrier begun with FuzzyBarrierStart.
func (c *Ctx) FuzzyBarrierEnd(tk shell.BarrierTicket) {
	c.Node.Shell.BarrierEnd(c.P, tk)
}

// EurekaTrigger raises the machine-wide global-OR wire: the T3D's early
// termination support for parallel search.
func (c *Ctx) EurekaTrigger() { c.Node.Shell.EurekaTrigger(c.P) }

// EurekaPoll samples the global-OR wire (a cheap local register read).
func (c *Ctx) EurekaPoll() bool { return c.Node.Shell.EurekaPoll(c.P) }

// EurekaReset lowers the wire for reuse; bracket with Barrier.
func (c *Ctx) EurekaReset() { c.Node.Shell.EurekaReset(c.P) }
