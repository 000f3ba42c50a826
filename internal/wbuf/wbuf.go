// Package wbuf models the Alpha 21064 write buffer: four entries, each one
// cache line (32 bytes) wide, with write merging.
//
// The write buffer is central to several of the paper's findings:
//
//   - Local writes cost ~3 cycles while the buffer absorbs them, rising to
//     the DRAM drain rate once it fills (§2.3, Figure 2).
//   - Stores to the same line merge into one entry, so small-stride writes
//     are cheaper than line-stride writes (§2.3).
//   - Loads bypass pending writes to *different* physical addresses. Annex
//     synonyms — the same memory word reached through two different Annex
//     indexes — have different physical addresses, so the bypass check
//     misses them and a read can return stale data while the write sits in
//     the buffer (§3.4). This package reproduces that hazard faithfully.
//   - The shell's remote-write status bit reflects only writes that have
//     left the buffer, so completion polling must first drain it (§4.3).
//   - Prefetch (fetch-hint) requests travel through the write buffer on
//     their way to the shell (§5.2).
//
// The buffer itself knows nothing about DRAM or the network: a Sink
// supplied by the node model disposes of drained entries and accounts for
// their time.
package wbuf

import (
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// LineSize is the width of one write-buffer entry in bytes, matching the
// 21064 cache line.
const LineSize = 32

// Kind distinguishes the traffic that rides the write buffer.
type Kind int

const (
	// KindWrite is an ordinary store (local or remote).
	KindWrite Kind = iota
	// KindFetch is a binding-prefetch request heading for the shell.
	KindFetch
)

// Entry is one write-buffer slot.
type Entry struct {
	Kind     Kind
	LineAddr int64          // line-aligned physical address, annex bits included
	Mask     uint32         // valid-byte mask within the line (writes only)
	Data     [LineSize]byte // write data (writes only)

	// FetchAddr is the exact word address a KindFetch entry requests.
	FetchAddr int64

	draining bool
}

// Run returns the first maximal run of valid bytes of a write entry at
// or after line offset from, as the offsets [lo, hi); lo == hi ==
// LineSize when there is none. Draining an entry run by run writes each
// run with one memory access:
//
//	for lo, hi := e.Run(0); lo < hi; lo, hi = e.Run(hi) { ... e.Data[lo:hi] ... }
func (e *Entry) Run(from int) (lo, hi int) {
	m := uint64(e.Mask)
	if from >= LineSize || m>>uint(from) == 0 {
		return LineSize, LineSize
	}
	lo = from + bits.TrailingZeros64(m>>uint(from))
	hi = lo + bits.TrailingZeros64(^(m >> uint(lo)))
	return lo, hi
}

// Sink disposes of drained entries in two phases. BeginDrain starts
// disposing of e (a local DRAM write, or injection of a remote
// write/prefetch packet into the shell) and returns the time its buffer
// slot frees; FinishDrain completes the drain at that time. Both run in
// event context and must not block. e is the slot itself: it is reused
// once FinishDrain returns, so a sink that needs the entry later keeps a
// copy.
type Sink interface {
	BeginDrain(e *Entry) sim.Time
	FinishDrain(e *Entry)
}

// Buffer is the write buffer of one node. It drains by scheduled
// callbacks, not by a proc: a push into an idle buffer schedules the
// oldest entry's drain at the current time, a drain whose slot frees
// later finishes at that time, and a finish that leaves entries starts
// the next drain at once.
type Buffer struct {
	eng  *sim.Engine
	sink Sink
	// slots is a ring of capacity entries: n occupied from head on,
	// oldest first.
	slots   []Entry
	head, n int
	busy    bool       // the head entry's drain is scheduled or under way
	changed sim.Signal // fired on every push and pop

	stepFn, finishFn func()

	// Stats for probes and tests.
	Pushes, Merges, FullStalls int64
}

// New returns a write buffer with the given number of slots, draining into
// sink.
func New(eng *sim.Engine, capacity int, sink Sink) *Buffer {
	if capacity <= 0 {
		panic("wbuf: capacity must be positive")
	}
	b := &Buffer{eng: eng, sink: sink, slots: make([]Entry, capacity)}
	b.changed.SetName("wbuf.changed")
	b.stepFn, b.finishFn = b.step, b.finish
	return b
}

// step drains from the head: it begins the oldest entry's drain and
// finishes it inline while its slot frees at once, until a slot frees
// later (then finish is scheduled for that time) or the buffer is empty.
func (b *Buffer) step() {
	for {
		e := &b.slots[b.head]
		e.draining = true
		if free := b.sink.BeginDrain(e); free > b.eng.Now() {
			b.eng.At(free, b.finishFn)
			return
		}
		if !b.pop() {
			return
		}
	}
}

// finish completes the drain that step scheduled and starts the next.
func (b *Buffer) finish() {
	if b.pop() {
		b.step()
	}
}

// pop completes the head entry's drain, frees its slot and reports
// whether entries remain.
func (b *Buffer) pop() bool {
	b.sink.FinishDrain(&b.slots[b.head])
	b.head = (b.head + 1) % len(b.slots)
	b.n--
	b.changed.Fire(b.eng)
	b.busy = b.n > 0
	return b.busy
}

// entry returns the i-th occupied slot, oldest first.
func (b *Buffer) entry(i int) *Entry { return &b.slots[(b.head+i)%len(b.slots)] }

// Len reports the number of occupied slots.
func (b *Buffer) Len() int { return b.n }

// Empty reports whether the buffer is drained.
func (b *Buffer) Empty() bool { return b.n == 0 }

// PushWrite inserts a store of data at addr, blocking p if the buffer is
// full. Stores to a line with an existing, not-yet-draining write entry
// merge into it (write merging) and consume no new slot. The bytes are
// copied: data is free for reuse when PushWrite returns.
//
//t3d:hotpath
func (b *Buffer) PushWrite(p *sim.Proc, addr int64, data []byte) {
	if len(data) == 0 || int64(len(data)) > LineSize {
		panic(fmt.Sprintf("wbuf: write of %d bytes", len(data)))
	}
	line := addr &^ (LineSize - 1)
	off := addr - line
	if off+int64(len(data)) > LineSize {
		panic(fmt.Sprintf("wbuf: write at %#x crosses a line boundary", addr))
	}
	b.Pushes++
	for i := 0; i < b.n; i++ {
		if e := b.entry(i); e.Kind == KindWrite && e.LineAddr == line && !e.draining {
			e.merge(off, data)
			b.Merges++
			return
		}
	}
	e := Entry{Kind: KindWrite, LineAddr: line}
	e.merge(off, data)
	b.pushSlot(p, e)
}

// merge writes data into the entry at line offset off.
func (e *Entry) merge(off int64, data []byte) {
	copy(e.Data[off:], data)
	for i := range data {
		e.Mask |= 1 << uint(off+int64(i))
	}
}

// PushFetch inserts a binding-prefetch request for the word at addr,
// blocking p if the buffer is full. Fetch entries never merge.
//
//t3d:hotpath
func (b *Buffer) PushFetch(p *sim.Proc, addr int64) {
	b.Pushes++
	b.pushSlot(p, Entry{Kind: KindFetch, LineAddr: addr &^ (LineSize - 1), FetchAddr: addr})
}

//t3d:hotpath
func (b *Buffer) pushSlot(p *sim.Proc, e Entry) {
	if b.n >= len(b.slots) {
		b.FullStalls++
		for b.n >= len(b.slots) {
			p.WaitSignal(&b.changed)
		}
	}
	*b.entry(b.n) = e
	b.n++
	if !b.busy { // an idle buffer starts draining now
		b.busy = true
		b.eng.At(b.eng.Now(), b.stepFn)
	}
	b.changed.Fire(b.eng)
}

// WaitEmpty blocks p until every entry has drained — the memory-barrier
// wait. The 4-cycle MB issue cost is charged by the CPU, not here.
//
//t3d:hotpath
func (b *Buffer) WaitEmpty(p *sim.Proc) {
	for b.n > 0 {
		p.WaitSignal(&b.changed)
	}
}

// ConflictsWith reports whether a pending write entry covers the line
// containing addr. The check uses full physical addresses, so Annex
// synonyms escape it — deliberately, to match the hardware hazard.
func (b *Buffer) ConflictsWith(addr int64) bool {
	line := addr &^ (LineSize - 1)
	for i := 0; i < b.n; i++ {
		if e := b.entry(i); e.Kind == KindWrite && e.LineAddr == line {
			return true
		}
	}
	return false
}

// WaitNoConflict blocks p until no pending write entry covers addr's line
// (the load/store conflict stall of the 21064).
//
//t3d:hotpath
func (b *Buffer) WaitNoConflict(p *sim.Proc, addr int64) {
	for b.ConflictsWith(addr) {
		p.WaitSignal(&b.changed)
	}
}
