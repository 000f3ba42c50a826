package splitc

import (
	"fmt"

	"repro/internal/addr"
)

// bind ensures an annex register points at pe with the given function
// code and returns its index, following the configured strategy (§3.4).
func (c *Ctx) bind(pe int, cached bool) int {
	switch c.rt.Cfg.Annex {
	case SingleAnnex:
		// Compare against the binding cached in a register.
		c.Compute(PtrOpCost)
		if c.boundPE == pe && c.boundCached == cached {
			return dataAnnexLow
		}
		c.Node.Shell.SetAnnex(c.P, dataAnnexLow, pe, cached)
		c.boundPE, c.boundCached = pe, cached
		return dataAnnexLow

	case MultiAnnex:
		// Hash the processor into the runtime table: a memory read and a
		// branch, ~10 cycles (§3.4) — savings relative to the 23-cycle
		// reload are small, which is the paper's point.
		c.Compute(c.rt.Cfg.GetTableCost)
		if idx := c.annexMap[pe]; idx >= 0 {
			if c.Node.Shell.Annex(int(idx)).Cached == cached {
				return int(idx)
			}
			c.Node.Shell.SetAnnex(c.P, int(idx), pe, cached)
			return int(idx)
		}
		idx := c.annexNext
		c.annexNext++
		if c.annexNext > dataAnnexHigh {
			c.annexNext = dataAnnexLow
		}
		if old := c.annexOcc[idx]; old > 0 {
			c.annexMap[old-1] = -1
		}
		c.annexOcc[idx] = pe + 1
		c.annexMap[pe] = int8(idx)
		c.Node.Shell.SetAnnex(c.P, idx, pe, cached)
		return idx
	}
	panic("splitc: unknown annex strategy")
}

// FetchIncOn atomically fetches and increments fetch&increment register
// reg on processor pe — the N-to-1 queue building block (§7.4).
func (c *Ctx) FetchIncOn(pe, reg int) uint64 {
	return c.Node.Shell.FetchInc(c.P, pe, reg)
}

// SwapOn atomically exchanges v with the word at g via the shell's
// atomic-swap support, returning the previous value.
func (c *Ctx) SwapOn(g GlobalPtr, v uint64) uint64 {
	c.Compute(PtrOpCost)
	if g.PE() == c.MyPE() {
		return c.Node.Shell.Swap(c.P, g.Local(), v)
	}
	idx := c.bind(g.PE(), false)
	return c.Node.Shell.Swap(c.P, addr.Make(idx, g.Local()), v)
}

// Read performs a blocking Split-C read of the 64-bit word at g. Remote
// reads use the uncached mechanism: cached reads would need a 23-cycle
// line flush to stay coherent, wiping out their bandwidth advantage
// (§4.4). Total remote cost ≈ 128 cycles including annex setup.
func (c *Ctx) Read(g GlobalPtr) uint64 {
	c.Reads++
	c.Compute(PtrOpCost) // extract the processor component
	if g.PE() == c.MyPE() {
		return c.Node.CPU.Load64(c.P, g.Local())
	}
	idx := c.bind(g.PE(), false)
	c.Compute(PtrOpCost) // insert the annex index: the "internal" pointer
	return c.Node.CPU.Load64(c.P, addr.Make(idx, g.Local()))
}

// Read32 is Read for 32-bit words.
func (c *Ctx) Read32(g GlobalPtr) uint32 {
	c.Reads++
	c.Compute(PtrOpCost)
	if g.PE() == c.MyPE() {
		return uint32(c.Node.CPU.Load32(c.P, g.Local()))
	}
	idx := c.bind(g.PE(), false)
	c.Compute(PtrOpCost)
	return uint32(c.Node.CPU.Load32(c.P, addr.Make(idx, g.Local())))
}

// Write performs a blocking Split-C write: the store, a memory barrier to
// push it out of the write buffer, and a poll of the shell status until
// the hardware acknowledgement returns (§4.3) — sequentially consistent
// as the language requires, ≈ 147 cycles remote.
//
// The completion wait applies even when g is local (§4.5): writes through
// global pointers always wait, which is exactly what makes mixing global
// and local pointers to the same data hazardous.
func (c *Ctx) Write(g GlobalPtr, v uint64) {
	c.Writes++
	c.Compute(PtrOpCost)
	if g.PE() == c.MyPE() {
		c.Node.CPU.Store64(c.P, g.Local(), v)
		c.Node.CPU.MB(c.P)
		return
	}
	idx := c.bind(g.PE(), false)
	c.Compute(PtrOpCost)
	c.Node.CPU.Store64(c.P, addr.Make(idx, g.Local()), v)
	c.Node.CPU.MB(c.P)
	c.Node.Shell.WaitWritesComplete(c.P)
	if c.rt.Cfg.Reliable {
		c.verifyWord(g, v)
	}
}

// Write32 is Write for 32-bit words.
func (c *Ctx) Write32(g GlobalPtr, v uint32) {
	c.Writes++
	c.Compute(PtrOpCost)
	if g.PE() == c.MyPE() {
		c.Node.CPU.Store32(c.P, g.Local(), uint64(v))
		c.Node.CPU.MB(c.P)
		return
	}
	idx := c.bind(g.PE(), false)
	c.Compute(PtrOpCost)
	c.Node.CPU.Store32(c.P, addr.Make(idx, g.Local()), uint64(v))
	c.Node.CPU.MB(c.P)
	c.Node.Shell.WaitWritesComplete(c.P)
	for pass := 0; c.rt.Cfg.Reliable && c.Read32(g) != v; pass++ {
		if pass >= c.rt.Cfg.MaxWriteRetries {
			panic(fmt.Sprintf("splitc: PE %d 32-bit write to PE %d never stuck", c.MyPE(), g.PE()))
		}
		c.noteRewrite()
		c.Node.CPU.Store32(c.P, addr.Make(idx, g.Local()), uint64(v))
		c.Node.CPU.MB(c.P)
		c.Node.Shell.WaitWritesComplete(c.P)
	}
}

// ReadCached is the cached-read ablation (§4.4): it uses the cached
// function code and flushes the line afterwards to preserve coherence,
// paying the extra 23 cycles the paper cites as disqualifying.
func (c *Ctx) ReadCached(g GlobalPtr) uint64 {
	c.Reads++
	c.Compute(PtrOpCost)
	if g.PE() == c.MyPE() {
		return c.Node.CPU.Load64(c.P, g.Local())
	}
	idx := c.bind(g.PE(), true)
	c.Compute(PtrOpCost)
	ia := addr.Make(idx, g.Local())
	v := c.Node.CPU.Load64(c.P, ia)
	c.Node.CPU.FlushLine(c.P, ia)
	return v
}

// WriteByteUnsafe stores one byte through a global pointer using the only
// sequence the Alpha allows: read the containing word, merge the byte
// with the byte-manipulation instructions, write the word back (§4.5).
// It is UNSAFE under concurrent updates to the same word — two
// processors' merges can silently clobber each other, which is why the
// production path is the active-message byte write in package am.
func (c *Ctx) WriteByteUnsafe(g GlobalPtr, b byte) {
	word := g.AddLocal(-(g.Local() % 8))
	n := uint(g.Local() % 8)
	v := c.Read(word)
	v = c.Node.CPU.InsertByte(c.P, v, n, b)
	c.Write(word, v)
}

// ByteRead reads one byte through a global pointer (reads are safe: word
// read plus extract).
func (c *Ctx) ByteRead(g GlobalPtr) byte {
	word := g.AddLocal(-(g.Local() % 8))
	v := c.Read(word)
	return c.Node.CPU.ExtractByte(c.P, v, uint(g.Local()%8))
}

// ExitLocalRegion ends a region where shared global data was accessed
// through ordinary local pointers (§4.5). Local stores are buffered and
// may be reordered past later local reads, so another processor could
// observe a consistency violation; the paper's chosen remedy is explicit
// privatization calls around such regions. Every local write performed
// inside becomes globally visible before the call returns, restoring
// the ordering global accesses rely on.
func (c *Ctx) ExitLocalRegion() {
	c.Node.CPU.MB(c.P)
	c.Node.Shell.WaitWritesComplete(c.P)
}
