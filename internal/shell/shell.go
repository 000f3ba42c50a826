// Package shell models the support circuitry Cray wrapped around each
// Alpha 21064 in the T3D (§1.2 of the paper): the DTB Annex segment
// registers, remote reads and writes over the torus, the binding-prefetch
// FIFO, the block transfer engine, fetch&increment registers, atomic
// swap, the hardware barrier wire, and the user-level message queue.
//
// A Fabric ties one Shell per node to the network and to every node's
// DRAM and cache, so remote operations can act on real data at the right
// simulated times. The shell implements cpu.Remote, which is how loads,
// stores and fetch hints with non-zero Annex indexes reach it.
package shell

import (
	"fmt"
	"math/bits"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/wbuf"
)

// Node is the shell's view of one T3D node: its memory, its cache (for
// invalidate mode), and its shell.
type Node struct {
	PE    int
	DRAM  *mem.DRAM
	L1    *cache.Cache
	Shell *Shell
}

// Fabric is the collection of nodes, the network between them, and the
// machine-wide barrier wire.
type Fabric struct {
	Eng     *sim.Engine
	Net     *net.Network
	Cfg     Config
	Nodes   []*Node
	Barrier *Barrier
	Eureka  *Eureka
}

// NewFabric creates an empty fabric for the given network. Nodes are
// attached with AddNode; the barrier spans all network nodes.
func NewFabric(eng *sim.Engine, network *net.Network, cfg Config) *Fabric {
	return &Fabric{
		Eng:     eng,
		Net:     network,
		Cfg:     cfg,
		Barrier: NewBarrier(eng, network.Nodes(), cfg.BarrierArm, cfg.BarrierProp),
		Eureka:  NewEureka(eng, cfg.BarrierArm, cfg.BarrierProp),
	}
}

// AddNode attaches the next node (PE = current count) and returns its
// shell.
func (f *Fabric) AddNode(dram *mem.DRAM, l1 *cache.Cache) *Shell {
	pe := len(f.Nodes)
	if pe >= f.Net.Nodes() {
		panic("shell: more nodes than the network has")
	}
	s := &Shell{
		eng:       f.Eng,
		cfg:       &f.Cfg,
		fab:       f,
		pe:        pe,
		cePending: make([]bool, f.Net.Nodes()),
		pq:        make([]pqSlot, f.Cfg.PrefetchEntries),
	}
	s.writeChanged.SetNamef("shell%d.writeAck", pe)
	s.pqSig.SetNamef("shell%d.prefetch", pe)
	s.msgSig.SetNamef("shell%d.msg", pe)
	s.bltSig.SetNamef("shell%d.blt", pe)
	s.arrival.SetNamef("shell%d.arrival", pe)
	s.annex[addr.LocalAnnex] = AnnexEntry{PE: pe}
	f.Nodes = append(f.Nodes, &Node{PE: pe, DRAM: dram, L1: l1, Shell: s})
	return s
}

// AnnexEntry is one DTB Annex register: a target processor and the
// function code controlling remote reads through it.
type AnnexEntry struct {
	PE     int
	Cached bool // cached (line-fill) vs uncached (single-word) reads
}

// Shell is the per-node support circuitry.
type Shell struct {
	eng *sim.Engine
	cfg *Config
	fab *Fabric
	pe  int

	annex [addr.AnnexEntries]AnnexEntry

	reqPort   sim.Resource // outgoing load/request injection
	storePort sim.Resource // outgoing write/prefetch drain injection
	respPort  sim.Resource // outgoing response/ack injection

	// The write buffer's one in-flight drain, from BeginInject to
	// FinishInject: a write's target PE, or a prefetch's FIFO slot.
	drainPE   int
	drainSlot *pqSlot

	outstandingWrites int
	writeChanged      sim.Signal

	// pq is the prefetch FIFO, a ring of PrefetchEntries slots: pqLen
	// outstanding prefetches from pqHead on.
	pq            []pqSlot
	pqHead, pqLen int
	pqSig         sim.Signal

	// Recycled transaction records (tx.go).
	freeReads   *readTx
	freeWrites  *writeTx
	freeAtomics *atomicTx

	// arrival fires whenever a remote write lands in this node's memory —
	// the event a polling receiver's cache-invalidate would surface. The
	// reliable active-message layer parks on it between retransmissions.
	arrival sim.Signal

	fi      [2]uint64
	swapReg uint64

	// stolen is the message-receive interrupt time (msg.go) the CPU
	// owes, charged at its next instruction boundary (TakeStolen).
	stolen sim.Time

	msgs     []Message
	msgSig   sim.Signal
	handler  func(p *sim.Proc, m Message)
	intrPort sim.Resource // serializes receive interrupts on this CPU

	bltBusy bool
	bltSig  sim.Signal
	// bltPoison latches that a completed BLT transfer moved at least one
	// uncorrectable word since the last BLTWait/BLTDiscard; bltPoisonAddr
	// is the first such source word.
	bltPoison     bool
	bltPoisonAddr int64

	drainer Drainer

	// cePending latches, per source PE, that a data packet from that
	// source arrived carrying the network's congestion-experienced mark
	// (net.Config.MarkThreshold). The bit stays set until software reads
	// it with TakeCongestionMark — the hardware register a receiver-side
	// protocol polls to echo congestion back to the sender.
	cePending []bool

	// Stats.
	RemoteReads, RemoteWrites, Prefetches, AnnexUpdates int64
	// CongestionMarks counts marked data-packet arrivals at this node.
	CongestionMarks int64
}

type pqSlot struct {
	filled   bool
	val      uint64
	poisoned bool  // the response carried an uncorrectable-error marker
	srcPE    int   // responder, for the poison report
	addr     int64 // source word offset, for the poison report
}

// PE returns the shell's node number.
func (s *Shell) PE() int { return s.pe }

// Config returns the shell timing parameters.
func (s *Shell) Config() *Config { return s.cfg }

func (s *Shell) node(pe int) *Node { return s.fab.Nodes[pe] }

// --- DTB Annex ---

// Drainer lets the shell wait for the node's write buffer; the machine
// wiring installs the buffer here.
type Drainer interface {
	WaitEmpty(p *sim.Proc)
}

// SetDrainer installs the node's write buffer for annex-update ordering.
func (s *Shell) SetDrainer(d Drainer) { s.drainer = d }

// SetAnnex updates annex register idx to point at processor pe with the
// given read function code, using the store-conditional sequence measured
// at 23 cycles (§3.2). Entry 0 is hard-wired to the local node.
//
// The annex write is a store-conditional, so it travels through the same
// write buffer as data stores and issues strictly behind them: buffered
// stores always translate through the OLD binding. Without this ordering
// a runtime that rebinds the register while stores are in flight would
// silently misroute them to the new target node.
//
//t3d:hotpath
func (s *Shell) SetAnnex(p *sim.Proc, idx, pe int, cached bool) {
	if idx <= 0 || idx >= addr.AnnexEntries {
		panic(fmt.Sprintf("shell: annex index %d not writable", idx))
	}
	if pe < 0 || pe >= len(s.fab.Nodes) {
		panic(fmt.Sprintf("shell: annex target PE %d out of range", pe))
	}
	if s.drainer != nil {
		s.drainer.WaitEmpty(p)
	}
	p.Wait(s.cfg.AnnexUpdate)
	s.AnnexUpdates++
	s.annex[idx] = AnnexEntry{PE: pe, Cached: cached}
}

// Annex returns the current contents of annex register idx.
func (s *Shell) Annex(idx int) AnnexEntry { return s.annex[idx] }

// Cached implements cpu.Remote: the function code of pa's annex entry.
func (s *Shell) Cached(pa int64) bool { return s.annex[addr.Annex(pa)].Cached }

// TakeStolen implements cpu.Remote: cycles consumed by message-receive
// interrupts, charged to the CPU at its next instruction boundary.
func (s *Shell) TakeStolen() sim.Time {
	d := s.stolen
	s.stolen = 0
	return d
}

// ArrivalSignal fires whenever a remote write lands in this node's
// memory. A polling receiver can park on it with WaitSignalTimeout
// instead of burning cycles in an idle poll loop; the reliable
// active-message layer uses it to pace retransmission timeouts.
func (s *Shell) ArrivalSignal() *sim.Signal { return &s.arrival }

// noteCongestion latches that a marked data packet from src arrived.
func (s *Shell) noteCongestion(src int) {
	s.cePending[src] = true
	s.CongestionMarks++
}

// TakeCongestionMark reads and clears this node's congestion-experienced
// latch for src: true means at least one data packet from src queued
// past the network's mark threshold since the last read. It models a
// hardware status bit, so it is free of simulated cost; the adaptive
// active-message layer polls it when acknowledging src and echoes the
// bit back through the ack word.
func (s *Shell) TakeCongestionMark(src int) bool {
	m := s.cePending[src]
	s.cePending[src] = false
	return m
}

// checkReachable verifies that the degraded torus still connects this
// node to pe in both directions — every shell transaction needs the
// reverse path for its response or acknowledgement. On failure it panics
// with a *net.PartitionError (an error value), which unwinds the issuing
// proc or write-buffer drain callback and surfaces from sim.RunErr as a
// *ProcFailure wrapping net.ErrPartitioned: an explicit, inspectable
// failure instead of a hang on a response that can never arrive.
//
//t3d:hotpath
func (s *Shell) checkReachable(pe int) {
	if pe == s.pe || s.fab.Net.DeadLinks() == 0 {
		return
	}
	if !s.fab.Net.Reachable(s.pe, pe) {
		panic(&net.PartitionError{Src: s.pe, Dst: pe})
	}
	if !s.fab.Net.Reachable(pe, s.pe) {
		panic(&net.PartitionError{Src: pe, Dst: s.pe})
	}
}

// SnapshotRegs captures the shell's architected soft state — the
// fetch&increment registers and the swap buffer — for checkpointing.
type RegSnapshot struct {
	FI   [2]uint64
	Swap uint64
}

// SnapshotRegs returns the shell's checkpointable register state.
func (s *Shell) SnapshotRegs() RegSnapshot {
	return RegSnapshot{FI: s.fi, Swap: s.swapReg}
}

// RestoreRegs reinstates register state captured by SnapshotRegs.
func (s *Shell) RestoreRegs(r RegSnapshot) {
	s.fi = r.FI
	s.swapReg = r.Swap
}

// --- Remote reads ---

// ReadWord implements cpu.Remote: a blocking uncached remote read.
//
//t3d:hotpath
func (s *Shell) ReadWord(p *sim.Proc, pa int64, size int) uint64 {
	e := s.annex[addr.Annex(pa)]
	s.checkReachable(e.PE)
	off := addr.Offset(pa)
	s.RemoteReads++
	p.Wait(s.cfg.IssueExtra)
	tx := s.getRead(e.PE, off, size)
	tx.done = &tx.wordDone
	s.afterInject(&s.reqPort, s.cfg.ReqInject, tx.sendFn)
	p.WaitSignal(tx.done)
	val, poisoned := tx.val, tx.poisoned
	s.putRead(tx)
	p.Wait(s.cfg.RespAccept)
	if poisoned {
		// The response arrived but its payload is an uncorrectable
		// memory error: trap on the requesting processor rather than
		// hand garbage to the program.
		panic(&mem.PoisonError{PE: e.PE, Addr: off})
	}
	return val
}

// ReadLine implements cpu.Remote: a blocking cached remote read filling
// one cache line. The extra line-fill transaction makes it slower than an
// uncached read (114 vs 91 cycles) despite moving four times the data.
//
//t3d:hotpath
func (s *Shell) ReadLine(p *sim.Proc, pa int64, line []byte) {
	e := s.annex[addr.Annex(pa)]
	s.checkReachable(e.PE)
	off := addr.Offset(pa)
	s.RemoteReads++
	p.Wait(s.cfg.IssueExtra)
	tx := s.getRead(e.PE, off, len(line))
	tx.done = &tx.lineDone
	s.afterInject(&s.reqPort, s.cfg.ReqInject, tx.sendFn)
	p.WaitSignal(tx.done)
	p.Wait(s.cfg.RespAccept + s.cfg.CachedFillExtra)
	// Copy out after the last wait: the caller installs line before any
	// other proc runs, so a line buffer the CPU reuses stays intact.
	copy(line, tx.data[:tx.size])
	poisoned := tx.poisoned
	s.putRead(tx)
	if poisoned {
		// Unwind before the caller can install the line in its cache.
		panic(&mem.PoisonError{PE: e.PE, Addr: off})
	}
}

// --- Remote writes and prefetch injection ---

// BeginInject implements cpu.Remote: it starts injecting a drained
// write-buffer entry bound for the shell — a remote write or a prefetch
// request — and returns the time the injection ends.
func (s *Shell) BeginInject(e *wbuf.Entry) sim.Time {
	switch e.Kind {
	case wbuf.KindWrite:
		return s.beginWrite(e)
	case wbuf.KindFetch:
		return s.beginFetch(e)
	}
	panic("shell: unknown entry kind")
}

// FinishInject implements cpu.Remote: the entry BeginInject started has
// left the processor.
func (s *Shell) FinishInject(e *wbuf.Entry) {
	if e.Kind == wbuf.KindWrite {
		s.finishWrite(e)
	} else {
		s.finishFetch()
	}
}

func (s *Shell) beginWrite(e *wbuf.Entry) sim.Time {
	ae := s.annex[addr.Annex(e.LineAddr)]
	s.checkReachable(ae.PE)
	s.drainPE = ae.PE
	flits := sim.Time((bits.OnesCount32(e.Mask) + 7) / 8)
	inj := s.cfg.WriteHeader + flits*s.cfg.WriteFlit8
	// Writes drain through their own injection path: loads bypass the
	// write stream entirely (§3.4 — the reads-bypass-writes ordering).
	start := s.storePort.Acquire(s.eng.Now(), inj)
	return start + inj
}

func (s *Shell) finishWrite(e *wbuf.Entry) {
	// The write has now left the processor: the shell status bit covers
	// it from here until the ack returns (§4.3).
	s.outstandingWrites++
	s.RemoteWrites++
	tx := s.getWrite()
	tx.rn, tx.lineOff, tx.entry = s.node(s.drainPE), addr.Offset(e.LineAddr), *e
	s.fab.Net.SendData(s.pe, s.drainPE, bits.OnesCount32(e.Mask), tx.deliverFn)
}

func (s *Shell) beginFetch(e *wbuf.Entry) sim.Time {
	ae := s.annex[addr.Annex(e.FetchAddr)]
	s.checkReachable(ae.PE)
	if s.pqLen >= s.cfg.PrefetchEntries {
		panic(fmt.Sprintf("shell: prefetch queue overflow on PE %d (>%d outstanding)",
			s.pe, s.cfg.PrefetchEntries))
	}
	slot := &s.pq[(s.pqHead+s.pqLen)%len(s.pq)]
	*slot = pqSlot{srcPE: ae.PE, addr: addr.Offset(e.FetchAddr)}
	s.pqLen++
	s.Prefetches++
	s.drainSlot = slot
	start := s.storePort.Acquire(s.eng.Now(), s.cfg.FetchInject)
	return start + s.cfg.FetchInject
}

func (s *Shell) finishFetch() {
	slot := s.drainSlot
	tx := s.getRead(slot.srcPE, slot.addr, 8)
	tx.slot = slot
	tx.send()
}

// PopPrefetch pops the head of the prefetch FIFO: a 23-cycle
// memory-mapped load (§5.2). It stalls until the head response has
// arrived. Popping with nothing outstanding is a program error.
func (s *Shell) PopPrefetch(p *sim.Proc) uint64 {
	if s.pqLen == 0 {
		panic(fmt.Sprintf("shell: PE %d popped an empty prefetch queue", s.pe))
	}
	head := s.popPrefetch(p)
	if head.poisoned {
		panic(&mem.PoisonError{PE: head.srcPE, Addr: head.addr})
	}
	return head.val
}

// DiscardPrefetches pops and drops every outstanding prefetch, poisoned
// or not — the rollback path's drain, where the epoch's data is being
// thrown away anyway and a poison trap would re-enter recovery.
func (s *Shell) DiscardPrefetches(p *sim.Proc) {
	for s.pqLen > 0 {
		s.popPrefetch(p)
	}
}

// popPrefetch waits for the FIFO head's response, pays the pop and
// returns the popped slot.
func (s *Shell) popPrefetch(p *sim.Proc) pqSlot {
	head := &s.pq[s.pqHead]
	for !head.filled {
		p.WaitSignal(&s.pqSig)
	}
	p.Wait(s.cfg.PopCost)
	s.pqHead = (s.pqHead + 1) % len(s.pq)
	s.pqLen--
	return *head
}

// --- Write-completion status ---

// ReadStatus reads the shell status register (23 cycles, off-chip) and
// reports whether any remote writes that have left the processor are
// still unacknowledged. Writes still sitting in the write buffer are NOT
// reflected — the §4.3 pitfall; callers must MB first.
func (s *Shell) ReadStatus(p *sim.Proc) bool {
	p.Wait(s.cfg.StatusRead)
	return s.outstandingWrites > 0
}

// WaitWritesComplete polls ReadStatus until all outstanding remote writes
// have been acknowledged, exactly as the Split-C blocking write does.
func (s *Shell) WaitWritesComplete(p *sim.Proc) {
	for s.ReadStatus(p) {
	}
}

// --- Fetch&increment and swap ---

// FetchInc atomically reads and increments fetch&increment register reg
// (0 or 1) on node pe, returning the pre-increment value. Cost is a full
// shell round trip — "essentially the cost of a remote read" (§7.4).
func (s *Shell) FetchInc(p *sim.Proc, pe, reg int) uint64 {
	if reg < 0 || reg > 1 {
		panic("shell: fetch&increment register index out of range")
	}
	s.checkReachable(pe)
	p.Wait(s.cfg.IssueExtra)
	tx := s.getAtomic(pe)
	tx.swap, tx.reg, tx.done = false, reg, &tx.fiDone
	s.afterInject(&s.reqPort, s.cfg.ReqInject, tx.sendFn)
	p.WaitSignal(tx.done)
	val := tx.val
	s.putAtomic(tx)
	p.Wait(s.cfg.RespAccept)
	return val
}

// FI reads a fetch&increment register without simulated cost (tests).
func (s *Shell) FI(reg int) uint64 { return s.fi[reg] }

// Swap atomically exchanges v with the 64-bit word at pa (which may be
// remote), returning the old value. The shell serializes swaps at the
// target node, so concurrent swaps to one location never both win.
func (s *Shell) Swap(p *sim.Proc, pa int64, v uint64) uint64 {
	ae := s.annex[addr.Annex(pa)]
	s.checkReachable(ae.PE)
	off := addr.Offset(pa)
	p.Wait(s.cfg.IssueExtra)
	tx := s.getAtomic(ae.PE)
	tx.swap, tx.off, tx.in, tx.done = true, off, v, &tx.swapDone
	s.afterInject(&s.reqPort, s.cfg.ReqInject, tx.sendFn)
	p.WaitSignal(tx.done)
	old, poisoned := tx.val, tx.poisoned
	s.putAtomic(tx)
	p.Wait(s.cfg.RespAccept)
	if poisoned {
		panic(&mem.PoisonError{PE: ae.PE, Addr: off})
	}
	return old
}

// --- Barrier ---

// BarrierStart arms this node's barrier bit (the start-barrier of the
// fuzzy barrier, §7.5) and returns a ticket for BarrierEnd.
func (s *Shell) BarrierStart(p *sim.Proc) BarrierTicket {
	return s.fab.Barrier.Arm(p)
}

// BarrierEnd completes the fuzzy barrier: it blocks until the wire went
// high for the ticket's generation and resets this node's view.
func (s *Shell) BarrierEnd(p *sim.Proc, t BarrierTicket) {
	s.fab.Barrier.Wait(p, t)
}

// BarrierDone samples the wire without blocking — the polling form of
// BarrierEnd, for code that must keep servicing message queues while the
// barrier collects (the checkpoint quiesce protocol).
func (s *Shell) BarrierDone(t BarrierTicket) bool {
	return s.fab.Barrier.Done(t)
}

// EurekaTrigger raises the machine-wide global-OR wire.
func (s *Shell) EurekaTrigger(p *sim.Proc) { s.fab.Eureka.Trigger(p) }

// EurekaPoll samples the global-OR wire.
func (s *Shell) EurekaPoll(p *sim.Proc) bool { return s.fab.Eureka.Poll(p) }

// EurekaReset lowers the wire; callers must barrier around the reset.
func (s *Shell) EurekaReset(p *sim.Proc) { s.fab.Eureka.Reset(p) }
