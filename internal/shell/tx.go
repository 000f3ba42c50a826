package shell

import (
	"encoding/binary"

	"repro/internal/addr"
	"repro/internal/cache"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/wbuf"
)

// Transaction records. Every remote shell operation is one event chain:
// request injection, the packet out, the remote access, the response or
// acknowledgement back. Each chain runs on a record whose continuations
// are method values built once, when the record is first made; a record
// returns to its shell's free list once its last event has run and the
// requester has copied the result out. So a steady-state remote read,
// write, prefetch, fetch&increment or swap allocates nothing.
//
// A blocking requester parks on its record's signal. If Recovery
// interrupts it mid-wait (sim.Proc.Interrupt), it unwinds without
// releasing the record: the chain still runs to the end and fires a
// signal no proc waits on, and the record is left to the garbage
// collector.

// afterInject occupies port for cost cycles of packet injection and
// schedules then for when the packet has left the node.
func (s *Shell) afterInject(port *sim.Resource, cost sim.Time, then func()) {
	start := port.Acquire(s.eng.Now(), cost)
	s.eng.At(start+cost, then)
}

// readTx is one remote read in flight: a blocking ReadWord or ReadLine,
// or a prefetch.
type readTx struct {
	s    *Shell
	rn   *Node // the node read
	off  int64
	size int

	// The response, latched when the remote bank samples the array.
	data      [cache.MaxLineSize]byte
	val       uint64
	corrected int
	poisoned  bool

	// Where the response goes: a blocking read fires done, which is
	// wordDone or lineDone (the deadlock dump's label); a prefetch
	// fills its FIFO slot instead.
	done               *sim.Signal
	slot               *pqSlot
	wordDone, lineDone *sim.Signal

	sendFn, serveFn, latchFn, completeFn, respondFn, replyFn, arriveFn, fillFn func()
	next                                                                       *readTx
}

// getRead takes a read record from the free list, building one when the
// list is empty, and aims it at size bytes at off on node pe.
//
//t3d:hotpath
func (s *Shell) getRead(pe int, off int64, size int) *readTx {
	tx := s.freeReads
	if tx == nil {
		//lint:allow hotalloc built once per outstanding read at the high-water mark, then recycled
		tx = s.newReadTx()
	} else {
		s.freeReads = tx.next
	}
	tx.rn, tx.off, tx.size = s.node(pe), off, size
	tx.done, tx.slot = nil, nil
	return tx
}

func (s *Shell) newReadTx() *readTx {
	tx := &readTx{s: s, wordDone: sim.NewSignal("readword"), lineDone: sim.NewSignal("readline")}
	tx.sendFn, tx.serveFn, tx.latchFn = tx.send, tx.serve, tx.latch
	tx.completeFn, tx.respondFn, tx.replyFn = tx.complete, tx.respond, tx.reply
	tx.arriveFn, tx.fillFn = tx.arrive, tx.fill
	return tx
}

func (s *Shell) putRead(tx *readTx) {
	tx.next, s.freeReads = s.freeReads, tx
}

// send puts the request, which carries the address, on the wire.
func (tx *readTx) send() {
	tx.s.fab.Net.Send(tx.s.pe, tx.rn.PE, 8, tx.serveFn)
}

// serve runs when the request reaches the remote node: the remote
// controller starts the DRAM access.
func (tx *readTx) serve() {
	s := tx.s
	t := s.eng.Now() + s.cfg.RemoteReadProc
	service, complete, rowHit := tx.rn.DRAM.ReadAccessTimes(t, tx.off)
	if !rowHit {
		complete += s.cfg.RemoteRowMissExtra
	}
	s.eng.At(service, tx.latchFn)
	s.eng.At(complete, tx.completeFn)
}

// latch samples the data when the bank reads the array, not when the
// full access completes — a concurrently queued write behind us at the
// bank must not leak into this read. The data streams through the
// SECDED pipe on its way out: single-bit faults are repaired (the
// response is held back ECCPenalty per correction), double-bit faults
// tag the response poisoned instead of trusting the bytes.
func (tx *readTx) latch() {
	data := tx.data[:tx.size]
	var pw []int64
	tx.corrected, pw = tx.rn.DRAM.ReadChecked(tx.off, data)
	tx.poisoned = len(pw) > 0
	switch tx.size {
	case 8:
		tx.val = binary.LittleEndian.Uint64(data)
	case 4:
		tx.val = uint64(binary.LittleEndian.Uint32(data))
	}
}

func (tx *readTx) complete() {
	if tx.corrected > 0 {
		tx.s.eng.After(tx.rn.DRAM.Config().ECCPenalty*sim.Time(tx.corrected), tx.respondFn)
	} else {
		tx.respond()
	}
}

func (tx *readTx) respond() {
	tx.s.afterInject(&tx.rn.Shell.respPort, tx.s.cfg.RespInject, tx.replyFn)
}

func (tx *readTx) reply() {
	tx.s.fab.Net.Send(tx.rn.PE, tx.s.pe, tx.size, tx.arriveFn)
}

// arrive runs when the response tail reaches the requesting node.
func (tx *readTx) arrive() {
	if tx.slot == nil {
		tx.done.Fire(tx.s.eng)
		return
	}
	// The response still pays the off-chip acceptance path on its way
	// into the prefetch FIFO, plus the FIFO's own management cost.
	tx.s.eng.After(tx.s.cfg.RespAccept+tx.s.cfg.PrefetchFillExtra, tx.fillFn)
}

func (tx *readTx) fill() {
	s := tx.s
	tx.slot.filled, tx.slot.val, tx.slot.poisoned = true, tx.val, tx.poisoned
	s.putRead(tx)
	s.pqSig.Fire(s.eng)
}

// writeTx is one remote write in flight, from its data packet's
// injection to the acknowledgement's arrival.
type writeTx struct {
	s       *Shell
	rn      *Node // the node written
	lineOff int64
	entry   wbuf.Entry // snapshot: the buffer slot is reused after drain
	fault   net.Fault
	marked  bool

	deliverFn                         func(net.Fault, bool)
	landFn, ackFn, sendAckFn, ackedFn func()
	next                              *writeTx
}

// getWrite takes a write record from the free list, building one when
// the list is empty.
//
//t3d:hotpath
func (s *Shell) getWrite() *writeTx {
	tx := s.freeWrites
	if tx == nil {
		//lint:allow hotalloc built once per unacknowledged write at the high-water mark, then recycled
		tx = s.newWriteTx()
	} else {
		s.freeWrites = tx.next
	}
	return tx
}

func (s *Shell) newWriteTx() *writeTx {
	tx := &writeTx{s: s}
	tx.deliverFn, tx.landFn, tx.ackFn = tx.deliver, tx.land, tx.ack
	tx.sendAckFn, tx.ackedFn = tx.sendAck, tx.acked
	return tx
}

// deliver runs when the data packet reaches the remote node.
func (tx *writeTx) deliver(fault net.Fault, marked bool) {
	s := tx.s
	tx.fault, tx.marked = fault, marked
	t := s.eng.Now() + s.cfg.WriteRemoteProc
	complete, _ := tx.rn.DRAM.WriteAccess(t, tx.lineOff)
	s.eng.At(complete, tx.landFn)
}

// land commits the data: it is visible once the remote DRAM write
// completes; only the acknowledgement takes the longer pipeline back
// out. A transient fault damages the payload but not the envelope: a
// dropped payload writes nothing, a corrupted one writes bit-flipped
// bytes — in both cases the hardware still acknowledges, so only an
// end-to-end check can notice.
func (tx *writeTx) land() {
	s, rn := tx.s, tx.rn
	switch tx.fault {
	case net.FaultDrop:
		// Payload lost in flight.
	case net.FaultCorrupt:
		tx.entry.Bytes(func(a int64, v byte) {
			rn.DRAM.Write(addr.Offset(a), []byte{v ^ 0xA5})
		})
	default:
		tx.entry.Bytes(func(a int64, v byte) {
			rn.DRAM.Write(addr.Offset(a), []byte{v})
		})
	}
	if s.cfg.InvalidateMode {
		// Cache-invalidate mode: flush the target line on the owning
		// node whether or not it is cached (§4.4).
		rn.L1.Invalidate(tx.lineOff)
	}
	if tx.marked {
		rn.Shell.noteCongestion(s.pe)
	}
	rn.Shell.arrival.Fire(s.eng)
	s.eng.After(s.cfg.WriteAckExtra, tx.ackFn)
}

func (tx *writeTx) ack() {
	tx.s.afterInject(&tx.rn.Shell.respPort, tx.s.cfg.AckInject, tx.sendAckFn)
}

func (tx *writeTx) sendAck() {
	tx.s.fab.Net.Send(tx.rn.PE, tx.s.pe, 0, tx.ackedFn)
}

// acked runs when the acknowledgement reaches the writer: the shell
// status bit stops covering the write.
func (tx *writeTx) acked() {
	s := tx.s
	s.outstandingWrites--
	tx.next, s.freeWrites = s.freeWrites, tx
	s.writeChanged.Fire(s.eng)
}

// atomicTx is one fetch&increment or swap in flight.
type atomicTx struct {
	s    *Shell
	rn   *Node // the node holding the register or word
	swap bool  // a swap of in with the word at off; else fetch&increment of register reg
	reg  int
	off  int64
	in   uint64

	// The result: the register or word's old value.
	val      uint64
	poisoned bool

	// done is fiDone or swapDone (the deadlock dump's label).
	done             *sim.Signal
	fiDone, swapDone *sim.Signal

	sendFn, serveFn, accessFn, replyFn, arriveFn func()
	next                                         *atomicTx
}

// getAtomic takes an atomic record from the free list, building one
// when the list is empty, and aims it at node pe.
//
//t3d:hotpath
func (s *Shell) getAtomic(pe int) *atomicTx {
	tx := s.freeAtomics
	if tx == nil {
		//lint:allow hotalloc built once per outstanding atomic at the high-water mark, then recycled
		tx = s.newAtomicTx()
	} else {
		s.freeAtomics = tx.next
	}
	tx.rn = s.node(pe)
	return tx
}

func (s *Shell) newAtomicTx() *atomicTx {
	tx := &atomicTx{s: s, fiDone: sim.NewSignal("fi"), swapDone: sim.NewSignal("swap")}
	tx.sendFn, tx.serveFn, tx.accessFn = tx.send, tx.serve, tx.access
	tx.replyFn, tx.arriveFn = tx.reply, tx.arrive
	return tx
}

func (s *Shell) putAtomic(tx *atomicTx) {
	tx.next, s.freeAtomics = s.freeAtomics, tx
}

// send puts the request on the wire: a swap carries its operand along
// with the address.
func (tx *atomicTx) send() {
	size := 8
	if tx.swap {
		size = 16
	}
	tx.s.fab.Net.Send(tx.s.pe, tx.rn.PE, size, tx.serveFn)
}

// serve runs when the request reaches the remote node: a swap reads the
// word through the DRAM, a fetch&increment only the shell register.
func (tx *atomicTx) serve() {
	s := tx.s
	if !tx.swap {
		s.eng.At(s.eng.Now()+s.cfg.FIAccess, tx.accessFn)
		return
	}
	t := s.eng.Now() + s.cfg.SwapAccess
	complete, _ := tx.rn.DRAM.ReadAccess(t, tx.off)
	s.eng.At(complete, tx.accessFn)
}

// access performs the atomic update at the remote node and injects the
// response.
func (tx *atomicTx) access() {
	s, rn := tx.s, tx.rn
	if tx.swap {
		// The read half goes through the SECDED pipe like any other
		// read; the write half installs the operand regardless, which
		// also clears the word's fault state.
		tx.val, _, tx.poisoned = rn.DRAM.Read64Checked(tx.off)
		rn.DRAM.Write64(tx.off, tx.in)
		if s.cfg.InvalidateMode {
			rn.L1.Invalidate(tx.off)
		}
	} else {
		tx.val = rn.Shell.fi[tx.reg]
		rn.Shell.fi[tx.reg]++
	}
	s.afterInject(&rn.Shell.respPort, s.cfg.RespInject, tx.replyFn)
}

func (tx *atomicTx) reply() {
	tx.s.fab.Net.Send(tx.rn.PE, tx.s.pe, 8, tx.arriveFn)
}

func (tx *atomicTx) arrive() { tx.done.Fire(tx.s.eng) }
