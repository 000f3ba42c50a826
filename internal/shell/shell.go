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
	"encoding/binary"
	"fmt"

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
		eng:          f.Eng,
		cfg:          &f.Cfg,
		fab:          f,
		pe:           pe,
		writeChanged: sim.NewSignal(fmt.Sprintf("shell%d.writeAck", pe)),
		pqSig:        sim.NewSignal(fmt.Sprintf("shell%d.prefetch", pe)),
		msgSig:       sim.NewSignal(fmt.Sprintf("shell%d.msg", pe)),
		bltSig:       sim.NewSignal(fmt.Sprintf("shell%d.blt", pe)),
		arrival:      sim.NewSignal(fmt.Sprintf("shell%d.arrival", pe)),
		cePending:    make([]bool, f.Net.Nodes()),
	}
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

	outstandingWrites int
	writeChanged      *sim.Signal

	pq    []*pqSlot
	pqSig *sim.Signal

	// arrival fires whenever a remote write lands in this node's memory —
	// the event a polling receiver's cache-invalidate would surface. The
	// reliable active-message layer parks on it between retransmissions.
	arrival *sim.Signal

	fi      [2]uint64
	swapReg uint64

	stolen sim.Time

	msgs     []Message
	msgSig   *sim.Signal
	handler  func(p *sim.Proc, m Message)
	intrPort sim.Resource // serializes receive interrupts on this CPU

	bltBusy bool
	bltSig  *sim.Signal
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
		//lint:allow hotalloc annex misuse panic; valid rebinds never format
		panic(fmt.Sprintf("shell: annex index %d not writable", idx))
	}
	if pe < 0 || pe >= len(s.fab.Nodes) {
		//lint:allow hotalloc annex misuse panic; valid rebinds never format
		panic(fmt.Sprintf("shell: annex target PE %d out of range", pe))
	}
	if s.drainer != nil {
		s.drainer.WaitEmpty(p)
	}
	p.Wait(s.cfg.AnnexUpdate)
	s.AnnexUpdates++
	s.annex[idx] = AnnexEntry{PE: pe, Cached: cached}
	//lint:allow hotalloc the tracer's variadic boxes on every rebind; a zero-cost disarmed Trace is ROADMAP item 5(b) (typed trace)
	s.eng.Trace("shell.annex", "pe%d annex[%d] <- pe=%d cached=%v", s.pe, idx, pe, cached)
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

// Steal charges d cycles against this node's CPU at its next instruction
// boundary — the mechanism message-receive interrupts already use. Fault
// injection uses it to model OS-jitter stalls (the paper's 25 µs OS trap
// cost, §7.4, arriving at an inopportune moment).
func (s *Shell) Steal(d sim.Time) {
	if d > 0 {
		s.stolen += d
	}
}

// ArrivalSignal fires whenever a remote write lands in this node's
// memory. A polling receiver can park on it with WaitSignalTimeout
// instead of burning cycles in an idle poll loop; the reliable
// active-message layer uses it to pace retransmission timeouts.
func (s *Shell) ArrivalSignal() *sim.Signal { return s.arrival }

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
// proc and surfaces from sim.RunErr as a *ProcFailure wrapping
// net.ErrPartitioned: an explicit, inspectable failure instead of a hang
// on a response that can never arrive.
//
//t3d:hotpath
func (s *Shell) checkReachable(pe int) {
	if pe == s.pe || s.fab.Net.DeadLinks() == 0 {
		return
	}
	if !s.fab.Net.Reachable(s.pe, pe) {
		//lint:allow hotalloc partition failure path; the fault-free fast path returns before any check
		panic(&net.PartitionError{Src: s.pe, Dst: pe})
	}
	if !s.fab.Net.Reachable(pe, s.pe) {
		//lint:allow hotalloc partition failure path; the fault-free fast path returns before any check
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
	//lint:allow hotalloc the tracer's variadic boxes on every read; a zero-cost disarmed Trace is ROADMAP item 5(b) (typed trace)
	s.eng.Trace("shell.read", "pe%d uncached read pe%d+%#x", s.pe, e.PE, off)
	p.Wait(s.cfg.IssueExtra)
	done := sim.NewSignal("readword")
	var val uint64
	var poisoned bool
	//lint:allow hotalloc the read transaction's event chain: one injection continuation and one completion closure per outstanding read
	s.startRead(e.PE, off, size, func(v uint64, _ []byte, poi bool) {
		val, poisoned = v, poi
		done.Fire(s.eng)
	})
	p.WaitSignalDeadline(done, "remote read")
	p.Wait(s.cfg.RespAccept)
	if poisoned {
		// The response arrived but its payload is an uncorrectable
		// memory error: trap on the requesting processor rather than
		// hand garbage to the program.
		//lint:allow hotalloc poison trap failure path; clean responses never allocate
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
	done := sim.NewSignal("readline")
	var poisoned bool
	//lint:allow hotalloc the line-fill transaction's event chain: one injection continuation and one completion closure per outstanding read
	s.startRead(e.PE, off, len(line), func(_ uint64, data []byte, poi bool) {
		copy(line, data)
		poisoned = poi
		done.Fire(s.eng)
	})
	p.WaitSignalDeadline(done, "remote line fill")
	p.Wait(s.cfg.RespAccept + s.cfg.CachedFillExtra)
	if poisoned {
		// Unwind before the caller can install the line in its cache.
		//lint:allow hotalloc poison trap failure path; clean responses never allocate
		panic(&mem.PoisonError{PE: e.PE, Addr: off})
	}
}

// startRead launches the request/response event chain for a remote read
// of size bytes at off on node pe, paying the full request-injection cost.
// finish runs at the moment the response tail arrives back at this node.
func (s *Shell) startRead(pe int, off int64, size int, finish func(val uint64, data []byte, poisoned bool)) {
	start := s.reqPort.Acquire(s.eng.Now(), s.cfg.ReqInject)
	s.eng.At(start+s.cfg.ReqInject, func() {
		s.sendReadRequest(pe, off, size, finish)
	})
}

// sendReadRequest is the post-injection half of startRead, used directly
// by prefetch requests (which pay the cheaper FetchInject instead).
func (s *Shell) sendReadRequest(pe int, off int64, size int, finish func(val uint64, data []byte, poisoned bool)) {
	s.fab.Net.Send(s.pe, pe, 8, func() { // request carries the address
		rn := s.node(pe)
		t := s.eng.Now() + s.cfg.RemoteReadProc
		service, complete, rowHit := rn.DRAM.ReadAccessTimes(t, off)
		if !rowHit {
			complete += s.cfg.RemoteRowMissExtra
		}
		data := make([]byte, size)
		var val uint64
		var corrected int
		var poisoned bool
		s.eng.At(service, func() {
			// Latch the data when the bank samples the array, not when
			// the full access completes — a concurrently queued write
			// behind us at the bank must not leak into this read. The
			// data streams through the SECDED pipe on its way out:
			// single-bit faults are repaired (the response is held back
			// ECCPenalty per correction), double-bit faults tag the
			// response poisoned instead of trusting the bytes.
			var pw []int64
			corrected, pw = rn.DRAM.ReadChecked(off, data)
			poisoned = len(pw) > 0
			switch size {
			case 8:
				val = binary.LittleEndian.Uint64(data)
			case 4:
				val = uint64(binary.LittleEndian.Uint32(data))
			}
		})
		s.eng.At(complete, func() {
			respond := func() {
				rs := rn.Shell.respPort.Acquire(s.eng.Now(), s.cfg.RespInject)
				s.eng.At(rs+s.cfg.RespInject, func() {
					s.fab.Net.Send(pe, s.pe, size, func() { finish(val, data, poisoned) })
				})
			}
			if corrected > 0 {
				s.eng.After(rn.DRAM.Config().ECCPenalty*sim.Time(corrected), respond)
			} else {
				respond()
			}
		})
	})
}

// --- Remote writes and prefetch injection ---

// InjectEntry implements cpu.Remote: it disposes of a drained write
// buffer entry bound for the shell — a remote write or a prefetch
// request. p is the write buffer's drain proc.
func (s *Shell) InjectEntry(p *sim.Proc, e *wbuf.Entry) {
	switch e.Kind {
	case wbuf.KindWrite:
		s.injectWrite(p, e)
	case wbuf.KindFetch:
		s.injectFetch(p, e)
	default:
		panic("shell: unknown entry kind")
	}
}

func (s *Shell) injectWrite(p *sim.Proc, e *wbuf.Entry) {
	ae := s.annex[addr.Annex(e.LineAddr)]
	s.checkReachable(ae.PE)
	lineOff := addr.Offset(e.LineAddr)
	nbytes := 0
	for i := 0; i < wbuf.LineSize; i++ {
		if e.Mask&(1<<uint(i)) != 0 {
			nbytes++
		}
	}
	flits := sim.Time((nbytes + 7) / 8)
	inj := s.cfg.WriteHeader + flits*s.cfg.WriteFlit8
	// Writes drain through their own injection path: loads bypass the
	// write stream entirely (§3.4 — the reads-bypass-writes ordering).
	start := s.storePort.Acquire(p.Now(), inj)
	p.WaitUntil(start + inj)
	// The write has now left the processor: the shell status bit covers
	// it from here until the ack returns (§4.3).
	s.outstandingWrites++
	s.RemoteWrites++
	s.eng.Trace("shell.write", "pe%d remote write pe%d+%#x (%dB)", s.pe, ae.PE, lineOff, nbytes)
	entry := *e // snapshot: the buffer slot is reused after drain
	s.fab.Net.SendDataEx(s.pe, ae.PE, nbytes, func(fault net.Fault, marked bool) {
		rn := s.node(ae.PE)
		t := s.eng.Now() + s.cfg.WriteRemoteProc
		complete, _ := rn.DRAM.WriteAccess(t, lineOff)
		s.eng.At(complete, func() {
			// Data is visible once the remote DRAM write completes; only
			// the acknowledgement takes the longer pipeline back out. A
			// transient fault damages the payload but not the envelope:
			// a dropped payload writes nothing, a corrupted one writes
			// bit-flipped bytes — in both cases the hardware still
			// acknowledges, so only an end-to-end check can notice.
			switch fault {
			case net.FaultDrop:
				// Payload lost in flight.
			case net.FaultCorrupt:
				entry.Bytes(func(a int64, v byte) {
					rn.DRAM.Write(addr.Offset(a), []byte{v ^ 0xA5})
				})
			default:
				entry.Bytes(func(a int64, v byte) {
					rn.DRAM.Write(addr.Offset(a), []byte{v})
				})
			}
			if s.cfg.InvalidateMode {
				// Cache-invalidate mode: flush the target line on the
				// owning node whether or not it is cached (§4.4).
				rn.L1.Invalidate(lineOff)
			}
			if marked {
				rn.Shell.noteCongestion(s.pe)
			}
			rn.Shell.arrival.Fire(s.eng)
			s.eng.After(s.cfg.WriteAckExtra, func() {
				as := rn.Shell.respPort.Acquire(s.eng.Now(), s.cfg.AckInject)
				s.eng.At(as+s.cfg.AckInject, func() {
					s.fab.Net.Send(ae.PE, s.pe, 0, func() {
						s.outstandingWrites--
						s.writeChanged.Fire(s.eng)
					})
				})
			})
		})
	})
}

func (s *Shell) injectFetch(p *sim.Proc, e *wbuf.Entry) {
	ae := s.annex[addr.Annex(e.FetchAddr)]
	s.checkReachable(ae.PE)
	off := addr.Offset(e.FetchAddr)
	if len(s.pq) >= s.cfg.PrefetchEntries {
		panic(fmt.Sprintf("shell: prefetch queue overflow on PE %d (>%d outstanding)",
			s.pe, s.cfg.PrefetchEntries))
	}
	slot := &pqSlot{srcPE: ae.PE, addr: off}
	s.pq = append(s.pq, slot)
	s.Prefetches++
	s.eng.Trace("shell.prefetch", "pe%d prefetch pe%d+%#x (%d outstanding)", s.pe, ae.PE, off, len(s.pq))
	start := s.storePort.Acquire(p.Now(), s.cfg.FetchInject)
	p.WaitUntil(start + s.cfg.FetchInject)
	s.sendReadRequest(ae.PE, off, 8, func(v uint64, _ []byte, poi bool) {
		// The response still pays the off-chip acceptance path on its way
		// into the prefetch FIFO, plus the FIFO's own management cost.
		s.eng.After(s.cfg.RespAccept+s.cfg.PrefetchFillExtra, func() {
			slot.filled = true
			slot.val = v
			slot.poisoned = poi
			s.pqSig.Fire(s.eng)
		})
	})
}

// PopPrefetch pops the head of the prefetch FIFO: a 23-cycle
// memory-mapped load (§5.2). It stalls until the head response has
// arrived. Popping with nothing outstanding is a program error.
func (s *Shell) PopPrefetch(p *sim.Proc) uint64 {
	if len(s.pq) == 0 {
		panic(fmt.Sprintf("shell: PE %d popped an empty prefetch queue", s.pe))
	}
	head := s.pq[0]
	sim.AwaitDeadline(p, s.pqSig, "prefetch response", func() bool { return head.filled })
	p.Wait(s.cfg.PopCost)
	s.pq = s.pq[1:]
	if head.poisoned {
		panic(&mem.PoisonError{PE: head.srcPE, Addr: head.addr})
	}
	return head.val
}

// DiscardPrefetches pops and drops every outstanding prefetch, poisoned
// or not — the rollback path's drain, where the epoch's data is being
// thrown away anyway and a poison trap would re-enter recovery.
func (s *Shell) DiscardPrefetches(p *sim.Proc) {
	for len(s.pq) > 0 {
		head := s.pq[0]
		sim.AwaitDeadline(p, s.pqSig, "prefetch response", func() bool { return head.filled })
		p.Wait(s.cfg.PopCost)
		s.pq = s.pq[1:]
	}
}

// PrefetchOutstanding reports the number of FIFO slots in use.
func (s *Shell) PrefetchOutstanding() int { return len(s.pq) }

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
		p.CheckDeadline("write completion")
	}
}

// OutstandingWrites exposes the raw counter for tests.
func (s *Shell) OutstandingWrites() int { return s.outstandingWrites }

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
	done := sim.NewSignal("fi")
	var val uint64
	start := s.reqPort.Acquire(p.Now(), s.cfg.ReqInject)
	s.eng.At(start+s.cfg.ReqInject, func() {
		s.fab.Net.Send(s.pe, pe, 8, func() {
			rsh := s.node(pe).Shell
			s.eng.At(s.eng.Now()+s.cfg.FIAccess, func() {
				v := rsh.fi[reg]
				rsh.fi[reg]++
				rs := rsh.respPort.Acquire(s.eng.Now(), s.cfg.RespInject)
				s.eng.At(rs+s.cfg.RespInject, func() {
					s.fab.Net.Send(pe, s.pe, 8, func() {
						val = v
						done.Fire(s.eng)
					})
				})
			})
		})
	})
	p.WaitSignalDeadline(done, "fetch&increment")
	p.Wait(s.cfg.RespAccept)
	return val
}

// PokeFI sets a fetch&increment register directly: a configuration
// helper for program setup, charged no simulated time.
func (s *Shell) PokeFI(reg int, v uint64) { s.fi[reg] = v }

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
	done := sim.NewSignal("swap")
	var old uint64
	var poisoned bool
	start := s.reqPort.Acquire(p.Now(), s.cfg.ReqInject)
	s.eng.At(start+s.cfg.ReqInject, func() {
		s.fab.Net.Send(s.pe, ae.PE, 16, func() {
			rn := s.node(ae.PE)
			t := s.eng.Now() + s.cfg.SwapAccess
			complete, _ := rn.DRAM.ReadAccess(t, off)
			s.eng.At(complete, func() {
				// The read half goes through the SECDED pipe like any
				// other read; the write half installs v regardless,
				// which also clears the word's fault state.
				o, _, poi := rn.DRAM.Read64Checked(off)
				rn.DRAM.Write64(off, v)
				if s.cfg.InvalidateMode {
					rn.L1.Invalidate(off)
				}
				rs := rn.Shell.respPort.Acquire(s.eng.Now(), s.cfg.RespInject)
				s.eng.At(rs+s.cfg.RespInject, func() {
					s.fab.Net.Send(ae.PE, s.pe, 8, func() {
						old = o
						poisoned = poi
						done.Fire(s.eng)
					})
				})
			})
		})
	})
	p.WaitSignalDeadline(done, "atomic swap")
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
