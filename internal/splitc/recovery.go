package splitc

import (
	"errors"
	"fmt"

	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/shell"
	"repro/internal/sim"
)

// This file implements barrier-aligned checkpoint/rollback recovery for
// Split-C programs: the machinery that keeps a bulk-synchronous program
// correct through node hard-faults.
//
// The execution model is epoch-structured. A program is a setup function
// (allocations, initial data) plus an epoch step function; the runtime
// runs epochs separated by global checkpoints. At each checkpoint every
// PE quiesces — outstanding gets drained, remote writes acknowledged and
// (in reliable mode) verified, BLT transfers finished — then crosses the
// hardware barrier, and the last arriver snapshots the whole machine:
// every node's DRAM image, the shell's architected registers, and each
// PE's runtime heap cursor. Only the latest checkpoint is kept.
//
// A node hard-fault is fail-stop-and-reboot: the CPU's volatile memory is
// zeroed (the crash model) and every program proc is interrupted. Procs
// unwind at their next signal wait via sim.InterruptSignal, quiesce their
// local hardware, and rendezvous; the last arriver restores the
// checkpoint (all DRAM, shell registers, the barrier's partial arm bits)
// and the epoch replays. Faults are deterministic functions of the run
// seed and the sim kernel is deterministic, so recovery is replayable:
// the same seed gives the same crashes, rollbacks, and final state.
//
// The correctness contract for recoverable programs: all mutable state
// that crosses an epoch boundary must live in simulated memory (the
// Split-C model — spread arrays, counters in the heap). Go closure state
// captured at setup must be immutable (layout addresses, sizes).
// Rollback to the pre-setup image re-runs setup itself, so setup must be
// deterministic.

// pollGap paces the quiesce and rendezvous waits, in cycles. They stay
// timed waits: a superseded timeout still advances the engine clock
// when it pops (sim.Engine sets now before skipping a stale wakeup), so
// untimed waits would move every recoverable run's cycle count.
const pollGap sim.Time = 200

// MachineSnapshot is one committed checkpoint: everything a fresh
// runtime needs to resume the program at Epoch without replaying
// earlier epochs. Because the recovery contract keeps all cross-epoch
// state in simulated memory, DRAM, shell registers and heap cursors
// are the whole of it. The same value serves as the coordinator's
// rollback target, the Sink's argument, the Resume input, and (via
// package ckpt) the on-disk checkpoint.
type MachineSnapshot struct {
	Epoch  int      // the epoch a resume of this snapshot starts at; -1 is the pre-run image
	Cycles sim.Time // cumulative simulated cycles the image accounts for
	Mem    [][]byte // per-PE DRAM images
	Regs   []shell.RegSnapshot
	Heap   []int64 // per-PE runtime heap cursor
}

// Fits reports why the snapshot cannot resume a run on m, or nil if it
// can: one DRAM image, register set and heap cursor per node, each image
// the size of that node's DRAM, and a non-negative epoch.
func (s *MachineSnapshot) Fits(m *machine.T3D) error {
	n := len(m.Nodes)
	if len(s.Mem) != n || len(s.Regs) != n || len(s.Heap) != n {
		return fmt.Errorf("recovery: snapshot has %d/%d/%d mem/regs/heap entries for a %d-PE machine",
			len(s.Mem), len(s.Regs), len(s.Heap), n)
	}
	if s.Epoch < 0 {
		return fmt.Errorf("recovery: snapshot epoch %d is negative", s.Epoch)
	}
	for pe, node := range m.Nodes {
		if int64(len(s.Mem[pe])) != node.DRAM.Size() {
			return fmt.Errorf("recovery: snapshot image for pe%d is %d bytes, DRAM is %d",
				pe, len(s.Mem[pe]), node.DRAM.Size())
		}
	}
	return nil
}

// RecoveryConfig parameterizes the recovery runtime.
type RecoveryConfig struct {
	// MaxRollbacks bounds total rollbacks before the run is declared
	// unrecoverable (0 = a default of 16).
	MaxRollbacks int
	// Resume, if non-nil, is an externally persisted checkpoint that
	// replaces the pre-run image: Run restores it before any proc runs
	// and begins at Resume.Epoch, and later checkpoints carry Cycles
	// on from Resume.Cycles. Run copies it and never writes the
	// caller's buffers. The machine must be freshly built with the
	// original run's host-side setup (graph build, layout, seeding) so
	// layout addresses match; the restored DRAM image then overrides
	// the seeded data and the program replays from the checkpointed
	// epoch to a bit-identical result.
	Resume *MachineSnapshot
	// Sink, if non-nil, observes every committed mid-run checkpoint —
	// the durable-checkpoint hook. It runs in the last arriver's proc
	// context with the machine fully quiesced, and must not touch the
	// simulation (host I/O only; wall time it spends is invisible to
	// simulated time). It is not called for the pre-run image or the
	// final checkpoint (the run is about to produce its result anyway).
	// The snapshot is the coordinator's own, valid only for the
	// duration of the call; a sink that persists asynchronously must
	// copy.
	Sink func(*MachineSnapshot)
}

// RecoveryStats reports what recovery did during a run.
type RecoveryStats struct {
	Checkpoints int64 // completed global checkpoints (incl. the pre-run image)
	Rollbacks   int64 // completed rollback-and-replay cycles
	NodeCrashes int64 // node hard-faults delivered to CrashNode

	// IntegrityRollbacks counts rollbacks triggered by data-integrity
	// traps — ECC poison or an audit mismatch — rather than crashes.
	// CheckpointsAborted counts checkpoints abandoned because scrubbing
	// found an uncorrectable word in the image about to be committed.
	IntegrityRollbacks int64
	CheckpointsAborted int64
}

// EpochFunc runs one epoch of the program on one PE and reports whether
// more epochs remain. All PEs must return false at the same epoch — the
// bulk-synchronous structure recovery depends on.
type EpochFunc func(epoch int) bool

// SetupFunc initializes one PE: allocations and initial data. It
// returns the PE's epoch step. Setup re-runs from scratch when a crash
// forces rollback to the pre-run image, so it must be deterministic.
type SetupFunc func(c *Ctx) EpochFunc

// Recovery coordinates checkpoint/rollback across all PEs of a runtime.
type Recovery struct {
	rt  *Runtime
	cfg RecoveryConfig

	ctxs []*Ctx // per-PE program contexts, set as each proc starts

	// ckpt is the latest committed checkpoint, the image a rollback
	// restores. Epoch -1 is the pre-run image, where restore means
	// "re-run setup".
	ckpt MachineSnapshot
	base sim.Time // cycles the resume image accounts for (0 on a fresh run)

	// Checkpoint rendezvous state.
	arrived   int
	exhausted []bool
	ckptGen   int64
	ckptSig   *sim.Signal

	// Rollback rendezvous state.
	rbArrived []bool
	rbWaiting int
	rbGen     int64 // rollback generations initiated
	rbDone    int64 // rollback generations completed (restored)
	rbSig     *sim.Signal

	committed bool // final checkpoint taken: results are stable, crashes ignored
	err       error

	Stats RecoveryStats
}

// NewRecovery builds a recovery coordinator over a runtime. Wire crash
// sources to CrashNode (fault.Injector.OnNodeCrash = r.CrashNode) before
// calling Run.
func NewRecovery(rt *Runtime, cfg RecoveryConfig) *Recovery {
	if cfg.MaxRollbacks <= 0 {
		cfg.MaxRollbacks = 16
	}
	n := len(rt.M.Nodes)
	return &Recovery{
		rt:   rt,
		cfg:  cfg,
		ctxs: make([]*Ctx, n),
		ckpt: MachineSnapshot{
			Epoch: -1,
			Mem:   make([][]byte, n),
			Regs:  make([]shell.RegSnapshot, n),
			Heap:  make([]int64, n),
		},
		exhausted: make([]bool, n),
		ckptSig:   sim.NewSignal("recovery.ckpt"),
		rbArrived: make([]bool, n),
		rbSig:     sim.NewSignal("recovery.rollback"),
	}
}

// CrashNode delivers a node hard-fault: PE's volatile memory is zeroed
// (fail-stop: the CPU state is lost; the shell, router, and DRAM
// hardware keep running) and every program proc is interrupted so the
// machine rolls back to the last checkpoint. Crashes after the final
// checkpoint are ignored — the program's results are already committed.
// Wire this as fault.Injector.OnNodeCrash.
func (r *Recovery) CrashNode(pe int) {
	if r.committed || r.err != nil {
		return
	}
	r.Stats.NodeCrashes++
	r.rt.M.Nodes[pe].DRAM.Zero()
	r.rt.M.Nodes[pe].L1.InvalidateAll() // reboot: the cache comes up cold
	r.rt.M.Eng.Trace("recovery", "pe%d crashed: memory lost, rolling back", pe)
	r.initiateRollback()
}

// initiateRollback interrupts every program proc; each unwinds to its
// driver loop and rendezvouses for the restore.
func (r *Recovery) initiateRollback() {
	if r.committed || r.err != nil {
		return
	}
	r.rbGen++
	for _, c := range r.ctxs {
		if c != nil {
			c.P.Interrupt()
		}
	}
}

// Run executes the program under recovery and returns the elapsed
// simulated time of this run (including any replayed epochs; a resumed
// run's earlier cycles are Resume.Cycles), the recovery stats, and an
// error for unrecoverable failures: a Resume that does not fit the
// machine, a partitioned torus (errors.Is(err, net.ErrPartitioned)),
// the rollback limit, deadlock, or livelock.
func (r *Recovery) Run(setup SetupFunc) (sim.Time, RecoveryStats, error) {
	rt := r.rt
	//lint:allow sharedstate stamped on the host before the attempt procs spawn; attempt bodies treat the rollback epoch base as read-only
	start := 0
	resume := r.cfg.Resume
	if resume != nil {
		// The external checkpoint replaces the pre-run image as the
		// rollback baseline. Restore it over the host-side seeding
		// (which ran so layout addresses match the original run).
		if err := resume.Fits(rt.M); err != nil {
			return 0, r.Stats, err
		}
		r.ckpt.Epoch, r.ckpt.Cycles = resume.Epoch, resume.Cycles
		for pe := range r.ckpt.Mem {
			r.ckpt.Mem[pe] = append([]byte(nil), resume.Mem[pe]...)
		}
		copy(r.ckpt.Regs, resume.Regs)
		copy(r.ckpt.Heap, resume.Heap)
		r.base = resume.Cycles
		r.restoreMachine()
		r.Stats.Checkpoints++
		start = resume.Epoch
	} else {
		// Checkpoint the pre-run image (epoch -1): host-side seeding has
		// happened, no proc has run. A crash before the first post-setup
		// checkpoint restores this and re-runs setup itself.
		r.snapshotMachine(-1)
	}

	end, err := rt.M.RunErr(func(p *sim.Proc, n *machine.Node) {
		c := rt.newCtx(p, n)
		pe := c.MyPE()
		r.ctxs[pe] = c
		var step EpochFunc
		epoch := start
		for {
			rolled := r.protect(func() {
				if r.err != nil {
					return
				}
				if step == nil {
					step = setup(c)
					if resume != nil {
						// The fresh context allocated nothing yet; adopt the
						// checkpointed allocator cursor so in-run allocations
						// land where the original run put them.
						c.heapNext = r.ckpt.Heap[pe]
					}
					r.quiesce(c)
					r.rendezvous(c, start, false)
					epoch = start
				}
				for {
					cont := step(epoch)
					r.quiesce(c)
					r.rendezvous(c, epoch+1, !cont)
					epoch++
					if !cont {
						return
					}
				}
			})
			if !rolled || r.err != nil {
				return // program complete, or unrecoverable
			}
			if !r.awaitRollback(c) {
				return // fatal during rollback
			}
			if r.ckpt.Epoch < 0 {
				// Pre-run image restored: replay from the very start.
				c.resetForRestart()
				step = nil
			} else {
				c.heapNext = r.ckpt.Heap[pe]
				epoch = r.ckpt.Epoch
			}
		}
	})
	if err == nil {
		err = r.err
	}
	if err != nil && !errors.Is(err, net.ErrPartitioned) && rt.M.Net.Partitioned() {
		err = fmt.Errorf("%w (run failed: %v)", net.ErrPartitioned, err)
	}
	return end, r.Stats, err
}

// protect runs body, converting a sim.InterruptSignal panic (rollback
// requested) into a true return. Integrity traps — an uncorrectable
// memory word reaching the program (*mem.PoisonError) or an end-to-end
// audit mismatch (*splitc.AuditError) — also convert: the epoch's data
// is damaged, detection is the contract, and the recovery is a rollback
// to the last clean checkpoint. Any other panic propagates.
func (r *Recovery) protect(body func()) (rolledBack bool) {
	defer func() {
		if rec := recover(); rec != nil {
			switch rec.(type) {
			case sim.InterruptSignal:
				rolledBack = true
				return
			case *mem.PoisonError, *AuditError:
				r.Stats.IntegrityRollbacks++
				r.rt.M.Eng.Trace("recovery", "integrity trap: %v; rolling back", rec)
				r.initiateRollback()
				rolledBack = true
				return
			}
			panic(rec)
		}
	}()
	body()
	return false
}

// quiesce completes this PE's outstanding traffic ahead of a checkpoint:
// split-phase gets, remote writes (verified in reliable mode), BLT
// transfers — then crosses the hardware barrier.
func (r *Recovery) quiesce(c *Ctx) {
	c.drainGets()
	c.Node.CPU.MB(c.P)
	c.Node.Shell.WaitWritesComplete(c.P)
	if c.Node.Shell.BLTBusy() || c.Node.Shell.BLTPoisoned() {
		c.Node.Shell.BLTWait(c.P)
	}
	c.settleWrites()
	c.settleAudits()
	tk := c.Node.Shell.BarrierStart(c.P)
	for !c.Node.Shell.BarrierDone(tk) {
		c.P.WaitSignalTimeout(c.Node.Shell.ArrivalSignal(), pollGap)
	}
}

// rendezvous is the checkpoint meeting point. Every PE arrives; the last
// arriver snapshots the whole machine and releases the rest. nextEpoch
// is the epoch a restore of this checkpoint resumes at; done marks this
// PE's final epoch.
func (r *Recovery) rendezvous(c *Ctx, nextEpoch int, done bool) {
	if c.P.Interrupted() {
		panic(sim.InterruptSignal{Proc: c.P.Name()})
	}
	r.exhausted[c.MyPE()] = done
	r.arrived++
	if r.arrived == len(r.ctxs) {
		r.takeCheckpoint(c, nextEpoch)
		return
	}
	myGen := r.ckptGen
	for r.ckptGen == myGen && r.err == nil {
		c.P.WaitSignalTimeout(r.ckptSig, pollGap)
	}
}

// takeCheckpoint commits the global snapshot. It runs in the last
// arriver's proc context with every PE quiesced and no program traffic
// in flight, consuming no simulated time (the barrier cost was already
// charged in quiesce).
//
// Before snapshotting, every node's memory is scrubbed: latent
// single-bit faults are repaired so they cannot pair into uncorrectable
// doubles inside the saved image. If scrubbing finds a word already
// uncorrectable, the image about to be committed is damaged — committing
// it would launder the corruption into every future rollback — so the
// checkpoint aborts and the machine rolls back to the previous clean
// image instead. The abort panics the last arriver's own interrupt (the
// other PEs are interrupted by initiateRollback), so no proc returns
// from a rendezvous that never committed.
func (r *Recovery) takeCheckpoint(c *Ctx, nextEpoch int) {
	uncorrectable := 0
	for _, n := range r.rt.M.Nodes {
		_, unc := n.DRAM.ScrubAll()
		uncorrectable += unc
	}
	if uncorrectable > 0 {
		r.Stats.CheckpointsAborted++
		r.Stats.IntegrityRollbacks++
		r.rt.M.Eng.Trace("recovery", "checkpoint aborted: %d uncorrectable words in image; rolling back", uncorrectable)
		r.initiateRollback()
		panic(sim.InterruptSignal{Proc: c.P.Name()})
	}
	r.snapshotMachine(nextEpoch)
	all := true
	for _, d := range r.exhausted {
		all = all && d
	}
	if all {
		// Final checkpoint: the program's results are committed. Later
		// crashes cannot un-compute them.
		r.committed = true
	}
	if r.cfg.Sink != nil && !all {
		r.cfg.Sink(&r.ckpt)
	}
	r.arrived = 0
	r.ckptGen++
	r.ckptSig.Fire(r.rt.M.Eng)
}

// snapshotMachine commits the machine's current state as the checkpoint
// a restore resumes at epoch. Every PE waits at the rendezvous, so each
// context's heap cursor is the one it arrived with; before the procs
// start (the pre-run image) there are no cursors to record.
func (r *Recovery) snapshotMachine(epoch int) {
	for pe, n := range r.rt.M.Nodes {
		r.ckpt.Mem[pe] = n.DRAM.Snapshot(r.ckpt.Mem[pe])
		r.ckpt.Regs[pe] = n.Shell.SnapshotRegs()
		if c := r.ctxs[pe]; c != nil {
			r.ckpt.Heap[pe] = c.heapNext
		}
	}
	r.ckpt.Epoch = epoch
	r.ckpt.Cycles = r.base + r.rt.M.Eng.Now()
	r.Stats.Checkpoints++
}

// restoreMachine reinstates the checkpoint's DRAM images and shell
// registers on every node. The restore rewrites DRAM beneath the
// (write-through) cache, so every resident line is potentially stale:
// invalidate wholesale — the replayed epoch re-warms, which is part of
// the rollback cost.
func (r *Recovery) restoreMachine() {
	for pe, n := range r.rt.M.Nodes {
		n.DRAM.Restore(r.ckpt.Mem[pe])
		n.L1.InvalidateAll()
		n.Shell.RestoreRegs(r.ckpt.Regs[pe])
	}
}

// awaitRollback is the rollback meeting point, entered after an
// interrupt unwound this PE's epoch. Each PE clears its interrupt,
// quiesces its local hardware (writes still drain: the shells survive a
// crash), and arrives; the last arriver restores the checkpoint. Returns
// false if the run became unrecoverable.
func (r *Recovery) awaitRollback(c *Ctx) bool {
	pe := c.MyPE()
	for {
		again := r.protect(func() {
			c.P.ClearInterrupt()
			r.rollbackQuiesce(c)
			myGen := r.rbGen
			if !r.rbArrived[pe] {
				r.rbArrived[pe] = true
				r.rbWaiting++
			}
			if r.rbWaiting == len(r.ctxs) {
				r.restoreAll()
			}
			for r.rbDone < myGen && r.err == nil {
				c.P.WaitSignalTimeout(r.rbSig, pollGap)
			}
		})
		if !again {
			return r.err == nil
		}
		// Another crash landed while rolling back: rendezvous again for
		// the newer generation (the restore is idempotent).
	}
}

// rollbackQuiesce drains this PE's local hardware without any global
// cooperation: the memory barrier pushes every fetch hint out of the
// write buffer, then outstanding prefetch responses are discarded into
// the void (as in drainGets, popping before the MB would leave hints
// to land in the emptied FIFO and overflow it on replay), buffered
// writes drain and acknowledge (the hardware outlives the crash), BLT
// transfers finish, and reliable-mode write records and pending audits
// — which describe an epoch being abandoned — are discarded. The
// discard variants of the drain primitives swallow ECC poison rather
// than trapping: the damaged data is being rolled away, and a re-trap
// here would wedge the rollback itself.
func (r *Recovery) rollbackQuiesce(c *Ctx) {
	c.Node.CPU.MB(c.P)
	c.Node.Shell.DiscardPrefetches(c.P)
	c.gets = nil
	c.Node.Shell.WaitWritesComplete(c.P)
	c.Node.Shell.BLTDiscard(c.P)
	c.relPending = nil
	c.relIndex = nil
	c.relRegions = nil
	c.settling = false
	c.auditRegions = nil
}

// restoreAll reinstates the last checkpoint machine-wide: every node's
// DRAM image and shell registers, plus the hardware barrier's partial
// arm bits (procs that armed and then unwound will arm again on replay).
// Runs atomically in the last arriver's proc context.
func (r *Recovery) restoreAll() {
	r.Stats.Rollbacks++
	if int(r.Stats.Rollbacks) > r.cfg.MaxRollbacks {
		r.err = fmt.Errorf("recovery: rollback limit %d exceeded — faults outrun recovery", r.cfg.MaxRollbacks)
	}
	r.restoreMachine()
	r.rt.M.Fabric.Barrier.Reset()
	// Reset any partially collected checkpoint rendezvous: the epoch
	// replays and every PE re-arrives.
	r.arrived = 0
	for i := range r.rbArrived {
		r.rbArrived[i] = false
	}
	r.rbWaiting = 0
	r.rbDone = r.rbGen
	r.rt.M.Eng.Trace("recovery", "rolled back to epoch %d (rollback #%d)", r.ckpt.Epoch, r.Stats.Rollbacks)
	r.rbSig.Fire(r.rt.M.Eng)
}

// resetForRestart returns the context to its just-constructed state for
// a replay from the pre-run image. The in-flight records (gets, write
// and audit regions) are already gone: rollbackQuiesce dropped them.
func (c *Ctx) resetForRestart() {
	c.heapNext = c.rt.Cfg.HeapBase
	c.boundPE, c.boundCached = -1, false
	for i := range c.annexMap {
		c.annexMap[i] = -1
	}
	for i := range c.annexOcc {
		c.annexOcc[i] = 0
	}
	c.annexNext = dataAnnexLow
}
