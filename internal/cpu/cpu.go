// Package cpu models the DEC Alpha 21064 processor core as the paper's
// micro-benchmarks see it: the issue costs of loads, stores, memory
// barriers and fetch hints, and the path each memory operation takes
// through the TLB, on-chip cache, write buffer, optional board-level L2,
// and DRAM.
//
// The same CPU model serves both machines of Figure 1: a T3D node (no L2,
// huge pages, a Remote port into the shell) and the DEC Alpha workstation
// (512 KB L2, 8 KB pages, no Remote port).
//
// The model is an instruction-cost model, not an ISA interpreter:
// simulated programs are Go code that calls Load64/Store64/MB/FetchHint
// and friends, each of which advances simulated time exactly as the real
// instruction sequence would. The paper's probes are written in assembly
// for the same reason — to measure hardware costs, not compiler overhead
// — and loop/address-arithmetic overhead is accounted separately with
// Compute (§2.1).
package cpu

import (
	"fmt"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/tlb"
	"repro/internal/wbuf"
)

// ClockMHz is the 21064 clock rate in the T3D: 150 MHz, 6.67 ns cycles.
const ClockMHz = 150

// NSPerCycle converts cycles to nanoseconds.
const NSPerCycle = 1e3 / ClockMHz

// Costs are the core issue costs in cycles.
type Costs struct {
	LoadHit    sim.Time // cache-hit load (throughput cost)
	StoreIssue sim.Time // store into the write buffer
	MBIssue    sim.Time // memory-barrier issue (plus the drain wait)
	FetchIssue sim.Time // fetch-hint (binding prefetch) issue
	OffChip    sim.Time // off-chip access: annex update, line flush
	L2Hit      sim.Time // board-cache hit (workstation only)
}

// DefaultCosts matches the paper's measurements: 1-cycle cache hits,
// ~3-cycle buffered stores (§2.3), 4-cycle MB and fetch issue (§5.2), and
// 23 cycles for anything that leaves the chip (§3.2, §4.4).
func DefaultCosts() Costs {
	return Costs{LoadHit: 1, StoreIssue: 3, MBIssue: 4, FetchIssue: 4, OffChip: 23, L2Hit: 8}
}

// Remote is the CPU's port into the T3D shell, nil on a workstation.
// Implementations live in package shell; the interface breaks the import
// cycle between core and shell.
type Remote interface {
	// Cached reports the function code of the annex entry selected by pa:
	// true for cached remote reads, false for uncached.
	Cached(pa int64) bool
	// ReadWord performs a blocking uncached remote read of size bytes
	// (4 or 8) at pa, advancing p through the full round trip.
	ReadWord(p *sim.Proc, pa int64, size int) uint64
	// ReadLine performs a blocking cached remote read, filling line
	// (one cache line) from the remote node.
	ReadLine(p *sim.Proc, pa int64, line []byte)
	// InjectEntry disposes of a drained write-buffer entry addressed to a
	// remote node (a remote write or a prefetch request), blocking p (the
	// drain proc) for the injection time.
	InjectEntry(p *sim.Proc, e *wbuf.Entry)
	// TakeStolen returns and clears cycles stolen from this CPU by
	// message-receive interrupts since the last call.
	TakeStolen() sim.Time
}

// CPU is one processor core with its memory hierarchy.
type CPU struct {
	Eng   *sim.Engine
	PE    int
	Costs Costs

	L1   *cache.Cache
	L2   *cache.Cache // nil on the T3D node
	TLB  *tlb.TLB
	WB   *wbuf.Buffer
	DRAM *mem.DRAM

	Remote Remote // nil on the workstation

	// Stats. ParityRefills counts loads that hit an L1 line with bad
	// parity and recovered by invalidate + refill from DRAM.
	Loads, Stores, RemoteLoads int64
	ParityRefills              int64
}

// chargeStolen applies any interrupt time stolen from this CPU at the next
// instruction boundary.
func (c *CPU) chargeStolen(p *sim.Proc) {
	if c.Remote == nil {
		return
	}
	if d := c.Remote.TakeStolen(); d > 0 {
		p.Wait(d)
	}
}

// Compute charges n cycles of local computation (register arithmetic,
// byte-manipulation instructions, branches).
func (c *CPU) Compute(p *sim.Proc, n sim.Time) {
	c.chargeStolen(p)
	p.Wait(n)
}

// ExtractByte models the Alpha EXTBL instruction: byte n of register
// value v, one cycle. The 21064 has no byte loads, so sub-word data is
// always handled with these register operations (§4.5).
func (c *CPU) ExtractByte(p *sim.Proc, v uint64, n uint) byte {
	if n > 7 {
		panic("cpu: byte index out of range")
	}
	c.Compute(p, 1)
	return byte(v >> (8 * n))
}

// InsertByte models the MSKBL/INSBL/BIS sequence: replace byte n of v
// with b, three single-cycle register operations.
func (c *CPU) InsertByte(p *sim.Proc, v uint64, n uint, b byte) uint64 {
	if n > 7 {
		panic("cpu: byte index out of range")
	}
	c.Compute(p, 3)
	return v&^(uint64(0xFF)<<(8*n)) | uint64(b)<<(8*n)
}

// Load64 performs a longword load. Remote addresses (annex index != 0) go
// through the shell using the cached or uncached path selected by the
// annex entry's function code.
func (c *CPU) Load64(p *sim.Proc, va int64) uint64 { return c.load(p, va, 8) }

// Load32 performs a word load.
func (c *CPU) Load32(p *sim.Proc, va int64) uint64 { return c.load(p, va, 4) }

//t3d:hotpath
func (c *CPU) load(p *sim.Proc, va int64, size int) uint64 {
	c.chargeStolen(p)
	c.Loads++
	if va%int64(size) != 0 {
		//lint:allow hotalloc unaligned-access misuse panic; aligned steady-state loads never format
		panic(fmt.Sprintf("cpu: unaligned %d-byte load at %#x", size, va))
	}
	pa := va // identity translation; the TLB charges time only
	if pen := c.TLB.Lookup(va); pen > 0 {
		p.Wait(pen)
	}
	if c.Remote != nil && !addr.IsLocal(pa) {
		//lint:allow hotalloc the remote path allocates only per-miss line staging and a conflict-stall wait; steady cached hits are allocation-free
		return c.loadRemote(p, pa, size)
	}
	//lint:allow hotalloc the local path allocates only per-miss line staging and the poison-trap error; per-hit loads are allocation-free
	return c.loadLocal(p, addr.Offset(pa), pa, size)
}

// loadLocal walks the L1 / (L2) / DRAM path. off is the DRAM offset, pa
// the full physical address used for cache tags and conflict checks.
func (c *CPU) loadLocal(p *sim.Proc, off, pa int64, size int) uint64 {
	v, pAddr := c.loadLocalChecked(p, off, pa, size)
	if pAddr >= 0 {
		panic(&mem.PoisonError{PE: c.PE, Addr: pAddr})
	}
	return v
}

// loadLocalChecked is loadLocal reporting poison as an address (-1 when
// the data is clean) instead of panicking — the primitive under both
// the trapping loads and Load64Checked.
func (c *CPU) loadLocalChecked(p *sim.Proc, off, pa int64, size int) (uint64, int64) {
	// Word-sized staging on the stack: per-access heap traffic on the
	// load path would dominate the simulated costs being measured.
	var wordBuf [8]byte
	buf := wordBuf[:size]
	if c.L1.Lookup(pa) {
		if c.L1.ParityBad(pa) {
			// Parity error on the hit: detected, never consumed. Drop
			// the line and replay the load as a miss — the cache is
			// write-through, so DRAM still holds the truth.
			c.ParityRefills++
			c.L1.Invalidate(pa)
		} else {
			// Latch the data before advancing time: an invalidate
			// landing during the hit cycle does not affect a load
			// already in flight.
			c.L1.ReadData(pa, buf)
			p.Wait(c.Costs.LoadHit)
			return word(buf), -1
		}
	}
	// Miss: the 21064 stalls a load that conflicts with a pending write
	// buffer entry (exact physical line match only — synonyms escape).
	c.WB.WaitNoConflict(p, pa)
	line := make([]byte, c.L1.Config().LineSize)
	lineAddr := c.L1.LineAddr(pa)
	lineOff := c.L1.LineAddr(off)
	if c.L2 != nil {
		if c.L2.Lookup(lineAddr) {
			p.Wait(c.Costs.L2Hit)
			c.L2.ReadData(lineAddr, line)
			c.L1.Fill(lineAddr, line)
			c.L1.ReadData(pa, buf)
			return word(buf), -1
		}
	}
	complete, _ := c.DRAM.ReadAccess(p.Now(), lineOff)
	p.WaitUntil(complete)
	corrected, poisoned := c.DRAM.ReadChecked(lineOff, line)
	if corrected > 0 {
		p.Wait(c.DRAM.Config().ECCPenalty * sim.Time(corrected))
	}
	if len(poisoned) > 0 {
		// Never install a poisoned line: the fill aborts and the
		// poison is reported against the first bad word.
		return 0, poisoned[0]
	}
	if c.L2 != nil {
		c.L2.Fill(lineAddr, line)
	}
	c.L1.Fill(lineAddr, line)
	c.L1.ReadData(pa, buf)
	return word(buf), -1
}

func (c *CPU) loadRemote(p *sim.Proc, pa int64, size int) uint64 {
	c.RemoteLoads++
	if !c.Remote.Cached(pa) {
		c.WB.WaitNoConflict(p, pa)
		return c.Remote.ReadWord(p, pa, size)
	}
	// Cached remote read: hits in the local L1 (that is what makes the
	// mechanism attractive and incoherent at once, §4.4).
	var wordBuf [8]byte
	buf := wordBuf[:size]
	if c.L1.Lookup(pa) {
		if c.L1.ParityBad(pa) {
			c.ParityRefills++
			c.L1.Invalidate(pa)
		} else {
			c.L1.ReadData(pa, buf)
			p.Wait(c.Costs.LoadHit)
			return word(buf)
		}
	}
	c.WB.WaitNoConflict(p, pa)
	line := make([]byte, c.L1.Config().LineSize)
	lineAddr := c.L1.LineAddr(pa)
	c.Remote.ReadLine(p, lineAddr, line)
	c.L1.Fill(lineAddr, line)
	c.L1.ReadData(pa, buf)
	return word(buf)
}

// Load64Checked is Load64 for receivers that must not trap on poison
// (the reliable active-message poll path): a local load returns
// (value, poisoned) instead of panicking with *mem.PoisonError, so the
// protocol can drop the message and let retransmission overwrite the
// bad word. Remote addresses take the ordinary trapping path — the AM
// queues this exists for live in local memory.
func (c *CPU) Load64Checked(p *sim.Proc, va int64) (uint64, bool) {
	c.chargeStolen(p)
	c.Loads++
	if va%8 != 0 {
		panic(fmt.Sprintf("cpu: unaligned 8-byte load at %#x", va))
	}
	pa := va // identity translation; the TLB charges time only
	if pen := c.TLB.Lookup(va); pen > 0 {
		p.Wait(pen)
	}
	if c.Remote != nil && !addr.IsLocal(pa) {
		return c.loadRemote(p, pa, 8), false
	}
	v, pAddr := c.loadLocalChecked(p, addr.Offset(pa), pa, 8)
	return v, pAddr >= 0
}

// Store64 performs a longword store through the write buffer.
func (c *CPU) Store64(p *sim.Proc, va int64, v uint64) { c.store(p, va, v, 8) }

// Store32 performs a word store. The Alpha has no byte or halfword
// stores; shared sub-word data needs a read-modify-write sequence, with
// the multiprocessor consequences of §4.5.
func (c *CPU) Store32(p *sim.Proc, va int64, v uint64) { c.store(p, va, v, 4) }

//t3d:hotpath
func (c *CPU) store(p *sim.Proc, va int64, v uint64, size int) {
	c.chargeStolen(p)
	c.Stores++
	if va%int64(size) != 0 {
		//lint:allow hotalloc unaligned-access misuse panic; aligned steady-state stores never format
		panic(fmt.Sprintf("cpu: unaligned %d-byte store at %#x", size, va))
	}
	pa := va
	if pen := c.TLB.Lookup(va); pen > 0 {
		p.Wait(pen)
	}
	p.Wait(c.Costs.StoreIssue)
	//lint:allow hotalloc per-store staging copy retained by the write buffer until drain; buffer pooling is ROADMAP item 4 (event-kernel costs)
	data := make([]byte, size)
	putWord(data, v)
	// Write-through: update a resident line (local or cached-remote).
	c.L1.WriteData(pa, data)
	if c.L2 != nil {
		c.L2.WriteData(pa, data)
	}
	c.WB.PushWrite(p, pa, data)
}

// MB issues a memory barrier: 4 cycles plus a stall until the write
// buffer (writes and prefetch requests alike) has drained into the
// memory system or shell.
func (c *CPU) MB(p *sim.Proc) {
	c.chargeStolen(p)
	p.Wait(c.Costs.MBIssue)
	c.WB.WaitEmpty(p)
}

// FetchHint issues the Alpha fetch instruction for va. On the T3D the
// shell interprets it as a binding prefetch into the off-chip prefetch
// FIFO (§5.2); the request travels through the write buffer.
func (c *CPU) FetchHint(p *sim.Proc, va int64) {
	c.chargeStolen(p)
	p.Wait(c.Costs.FetchIssue)
	c.WB.PushFetch(p, va)
}

// FlushLine flushes the cache line containing va: an off-chip operation
// costing 23 cycles (§4.4). The cache is write-through, so no data moves.
func (c *CPU) FlushLine(p *sim.Proc, va int64) {
	c.chargeStolen(p)
	p.Wait(c.Costs.OffChip)
	c.L1.Invalidate(va)
}

// FlushCache empties the whole data cache (the batched flush used by bulk
// cached reads past 8 KB, §6.2). Charged as one off-chip operation per
// resident line set in bulk: the hardware sweep is proportional to cache
// size, modeled as OffChip + 1 cycle per line.
func (c *CPU) FlushCache(p *sim.Proc) {
	c.chargeStolen(p)
	lines := c.L1.Config().Size / c.L1.Config().LineSize
	p.Wait(c.Costs.OffChip + sim.Time(lines))
	c.L1.InvalidateAll()
}

// Drain implements wbuf.Sink: it disposes of one drained entry, routing
// local writes to DRAM and remote traffic to the shell. p is the write
// buffer's drain proc, not the CPU's thread.
func (c *CPU) Drain(p *sim.Proc, e *wbuf.Entry) {
	if c.Remote != nil && !addr.IsLocal(e.LineAddr) {
		c.Remote.InjectEntry(p, e)
		return
	}
	if e.Kind == wbuf.KindFetch {
		// A fetch hint for a local address: serviced from local memory
		// into the prefetch queue via the shell's loopback.
		if c.Remote != nil {
			c.Remote.InjectEntry(p, e)
			return
		}
		// Workstation: the 21064 fetch instruction is a no-op hint.
		return
	}
	off := addr.Offset(e.LineAddr)
	complete, _ := c.DRAM.WriteAccess(p.Now(), off)
	p.WaitUntil(complete)
	e.Bytes(func(a int64, v byte) {
		c.DRAM.Write(addr.Offset(a), []byte{v})
	})
}

func word(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

func putWord(b []byte, v uint64) {
	for i := range b {
		b[i] = byte(v)
		v >>= 8
	}
}
