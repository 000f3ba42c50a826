// ok.go is the no-false-positive fixture: every function mirrors a
// blessed pattern from the real tree (internal/apps, internal/exp) and
// must produce zero splitphase diagnostics.
package fixsplit

import "repro/internal/splitc"

// getWindowThenSync mirrors the em3d gather: a window of pipelined gets
// settled by one sync.
func getWindowThenSync(c *splitc.Ctx, gs []splitc.GlobalPtr, base int64) {
	for i, g := range gs {
		c.Get(base+int64(i)*8, g)
	}
	c.Sync()
}

// bothBranchesSettle settles on every path to exit.
func bothBranchesSettle(c *splitc.Ctx, g splitc.GlobalPtr, dst int64, fast bool) {
	c.Get(dst, g)
	if fast {
		c.Sync()
	} else {
		c.Barrier()
	}
}

// bulkPipeline mirrors the bulk-put experiments: AllStoreSync drains
// the store counter before the closing barrier.
func bulkPipeline(c *splitc.Ctx, g splitc.GlobalPtr, src int64) {
	c.BulkPut(g, src, 1<<10)
	c.AllStoreSync()
	c.Barrier()
}

// readAfterSync touches the landing zone only after the counter drains.
func readAfterSync(c *splitc.Ctx, g splitc.GlobalPtr, dst int64) uint64 {
	c.Get(dst, g)
	c.Sync()
	return c.Node.CPU.Load64(c.P, dst)
}

// deferredSync settles at every exit via defer.
func deferredSync(c *splitc.Ctx, g splitc.GlobalPtr, dst int64, n int) {
	defer c.Sync()
	for i := 0; i < n; i++ {
		c.Get(dst+int64(i)*8, g)
	}
}

// panicPathExempt: a path that cannot return carries no obligation.
func panicPathExempt(c *splitc.Ctx, g splitc.GlobalPtr, dst int64, ok bool) {
	c.Get(dst, g)
	if !ok {
		panic("fixsplit: bad input")
	}
	c.Sync()
}

// blockingOpsFree: Read/Write are blocking, not split-phase; no sync
// obligation attaches.
func blockingOpsFree(c *splitc.Ctx, g splitc.GlobalPtr) uint64 {
	c.Write(g, 7)
	return c.Read(g)
}

// helperGet issues the get; its caller performs the dominating sync.
// The summary-based analysis discharges the helper through the call
// graph instead of demanding a whole-function //lint:allow.
func helperGet(c *splitc.Ctx, g splitc.GlobalPtr, dst int64) {
	c.Get(dst, g)
}

func callerSyncs(c *splitc.Ctx, g splitc.GlobalPtr, dst int64) {
	helperGet(c, g, dst)
	c.Sync()
}

// syncingHelper settles the counter for its caller: the runtime's sync
// counter is per-processor, not per-frame, so a callee's sync settles
// the caller's earlier issues too.
func syncingHelper(c *splitc.Ctx) {
	c.Sync()
}

func callerUsesHelperSync(c *splitc.Ctx, g splitc.GlobalPtr, dst int64) {
	c.Get(dst, g)
	syncingHelper(c)
}

// opSeries / fig7Mirror mirror the exp fig7 pattern: an op literal
// flows into a parameter, is invoked inside the runtime program, and
// the program's sync settles it — discharged via one-level value flow.
func opSeries(rt *splitc.Runtime, op func(c *splitc.Ctx, g splitc.GlobalPtr), g splitc.GlobalPtr) {
	rt.RunOn(0, func(c *splitc.Ctx) {
		op(c, g)
		c.Sync()
	})
}

func fig7Mirror(rt *splitc.Runtime, g splitc.GlobalPtr) {
	opSeries(rt, func(c *splitc.Ctx, g splitc.GlobalPtr) {
		c.Put(g, 1)
	}, g)
}
