package serve

import (
	"time"

	"repro/internal/ckpt"
	"repro/internal/em3d"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// ckptRef is one journal-recorded resume candidate: the checkpointed
// record's binding of this job to a file name (relative to the
// checkpoint dir) and the whole-file digest of the bytes the record
// vouches for.
type ckptRef struct {
	File   string
	Digest string
	Epoch  int
}

// ckptRun carries one job's durable-checkpoint context into runSpec:
// where to persist (store + journal), how often (interval, simulated
// cycles), and which journal-referenced checkpoints may be resumed
// from (refs, newest first).
//
// The persist protocol is write-then-bind: publish the file (tmp +
// fsync + rename), then append the checkpointed record binding job →
// epoch → file digest. If the binding cannot be made durable — the
// journal is degraded, closing under a cancel/kill, or the disk died
// between the two steps — the just-published file is removed again, so
// no checkpoint exists that the journal does not vouch for. (A real
// SIGKILL between the two steps leaves the orphan on disk; the startup
// sweep removes every file no journal record references, closing the
// same window from the other side.)
type ckptRun struct {
	store    *ckpt.Store
	journal  *Journal
	id       string
	tenant   string
	interval int64
	refs     []ckptRef
	logf     func(string, ...any)
}

// run executes one em3d spec under the recoverable runner with durable
// checkpointing, resuming from the newest valid journal-referenced
// checkpoint when there is one.
func (c *ckptRun) run(m *machine.T3D, cfg em3d.Config, v em3d.Version, prog *Progress) (em3d.Result, error) {
	resume := c.resolveResume(m)
	var base int64
	if resume != nil {
		base = resume.Cycles
		if prog != nil {
			prog.Resumed.Store(true)
			prog.ResumeEpoch.Store(int64(resume.Epoch))
			prog.ResumeCycles.Store(base)
			prog.Cycles.Store(base)
		}
	}
	opts := em3d.RecoverOpts{
		Recovery: splitc.RecoveryConfig{Resume: resume, Sink: c.sink(base, prog)},
	}
	if prog != nil {
		opts.Progress = func(epoch int, cum sim.Time) {
			prog.Iters.Store(int64(epoch))
			prog.Cycles.Store(cum)
		}
	}
	res, _, err := em3d.RunRecoverableOpts(m, cfg, v, em3d.DefaultKnobs(), opts)
	return res, err
}

// resolveResume walks the fallback ladder: newest checkpoint first,
// each candidate fully validated (journal digest over the whole file,
// header CRC, payload CRC, machine shape) before it is trusted. A
// candidate that fails any check is quarantined and the next-older one
// tried; with none left the job replays from scratch. Graceful
// degradation — a damaged checkpoint can cost time, never correctness.
func (c *ckptRun) resolveResume(m *machine.T3D) *splitc.MachineSnapshot {
	for _, ref := range c.refs {
		snap, err := c.store.Load(ref.File, ref.Digest)
		if err != nil {
			c.logf("serve: checkpoint %s for %s failed validation: %v (quarantined, trying older)", ref.File, c.id, err)
			c.store.Quarantine(ref.File)
			continue
		}
		if snap.JobID != c.id || snap.Epoch != ref.Epoch {
			c.logf("serve: checkpoint %s binds to job %s epoch %d, journal says %s epoch %d (quarantined)",
				ref.File, snap.JobID, snap.Epoch, c.id, ref.Epoch)
			c.store.Quarantine(ref.File)
			continue
		}
		if err := snap.Fits(m); err != nil {
			c.logf("serve: checkpoint %s does not fit the machine: %v (quarantined)", ref.File, err)
			c.store.Quarantine(ref.File)
			continue
		}
		c.logf("serve: job %s resuming from checkpoint %s (epoch %d, %d cycles banked)",
			c.id, ref.File, snap.Epoch, snap.Cycles)
		return &snap.MachineSnapshot
	}
	return nil
}

// sink returns the checkpoint sink: persist at most one file per
// interval of cumulative cycles. It runs in simulation context (the
// machine is quiesced at a committed checkpoint), so its wall time is
// invisible to simulated time and its failures only delay the next
// persist attempt by one interval — a dead disk degrades RTO, not the
// run.
func (c *ckptRun) sink(base int64, prog *Progress) func(*splitc.MachineSnapshot) {
	lastPersist := base
	return func(ms *splitc.MachineSnapshot) {
		if ms.Cycles-lastPersist < c.interval {
			return
		}
		// Attempt made: advance the gate on success or failure, so a
		// persistently failing disk is probed once per interval, not once
		// per epoch.
		lastPersist = ms.Cycles
		name, digest, err := c.store.Write(&ckpt.Snapshot{JobID: c.id, MachineSnapshot: *ms})
		if err != nil {
			if prog != nil {
				prog.CheckpointFails.Add(1)
			}
			c.logf("serve: checkpoint write for %s epoch %d: %v", c.id, ms.Epoch, err)
			return
		}
		rec := Record{
			Type: recCheckpointed, ID: c.id, Tenant: c.tenant,
			Epoch: ms.Epoch, File: name, Digest: digest, Cycles: ms.Cycles,
		}
		if err := appendRetry(c.journal, rec, 3, time.Sleep); err != nil {
			// The binding is not durable: unpublish so no file exists the
			// journal does not vouch for (the cancel/crash stranding guard).
			if rerr := c.store.Remove(name); rerr != nil {
				c.logf("serve: unpublish of unbound checkpoint %s: %v", name, rerr)
			}
			if prog != nil {
				prog.CheckpointFails.Add(1)
			}
			c.logf("serve: checkpoint record for %s epoch %d: %v (checkpoint discarded)", c.id, ms.Epoch, err)
			return
		}
		if prog != nil {
			prog.Checkpoints.Add(1)
		}
	}
}
