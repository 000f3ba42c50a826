package em3d

import (
	"repro/internal/cpu"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// RecoverOpts bundles the optional extensions of a recoverable run:
// crash injection, durable-checkpoint export, and resume from a
// previously exported checkpoint. The zero value is a plain
// recoverable run.
type RecoverOpts struct {
	// Recovery configures the coordinator. Its Sink observes each
	// committed mid-run checkpoint; its Resume, if non-nil, starts the
	// run at the snapshot's epoch instead of epoch 0, with a
	// bit-identical result, and Result.Cycles then includes the
	// Resume.Cycles the snapshot already accounts for — the accounting
	// the serve cache and tenant budgets charge.
	Recovery splitc.RecoveryConfig
	// Injector, if non-nil, has its node-crash handler wired to the
	// recovery layer (the extG hard-fault path).
	Injector *fault.Injector
	// Progress, if non-nil, is called on PE 0 after each epoch with the
	// epoch just finished and the cumulative cycles.
	Progress func(epoch int, cum sim.Time)
}

// RunRecoverable executes EM3D under checkpoint/rollback recovery
// (splitc.Recovery): the program survives permanent link faults (the
// fabric reroutes) and node hard-faults (the machine rolls back to the
// last epoch checkpoint and replays). The epoch structure maps one
// leapfrog half-step to one epoch: epoch 0 is the untimed warm-up,
// epochs 1..Iters are the measured steps, and a checkpoint separates
// every pair.
//
// All cross-epoch state — H values, ghost regions, staging buffers —
// already lives in simulated memory (the Split-C model), so the kernel is
// recoverable as written: a replayed epoch recomputes E from the restored
// H field and lands on bit-identical values. in, if non-nil, has its
// crash handler wired to the recovery layer; pass the injector whose
// schedule carries HardNodeFaults.
//
// Cycles in the returned Result is the full run time including replayed
// epochs and rollback stalls — the degraded-mode completion time the extG
// experiment sweeps.
func RunRecoverable(m *machine.T3D, cfg Config, v Version, knobs Knobs, rcfg splitc.RecoveryConfig, in *fault.Injector) (Result, splitc.RecoveryStats, error) {
	return RunRecoverableOpts(m, cfg, v, knobs, RecoverOpts{Recovery: rcfg, Injector: in})
}

// RunRecoverableOpts is RunRecoverable with the full option set: the
// entry point of the durable-checkpoint path. The same spec produces
// the same digest whether it runs uninterrupted, crashes and replays
// in-memory, or is killed and resumed from a persisted checkpoint —
// the property the serve layer's resume tests pin.
func RunRecoverableOpts(m *machine.T3D, cfg Config, v Version, knobs Knobs, opts RecoverOpts) (Result, splitc.RecoveryStats, error) {
	nproc := len(m.Nodes)
	g := buildGraph(nproc, cfg)
	rtCfg := splitc.DefaultConfig()
	rtCfg.Reliable = cfg.Reliable
	rtCfg.Audit = cfg.Audit
	rt := splitc.NewRuntime(m, rtCfg)
	lay := layout(g, rt)
	// Host-side seeding happens before Run takes the pre-run image, so a
	// crash before the first checkpoint restores the seeded graph. On
	// resume the checkpoint image overwrites the seeded values, but the
	// layout addresses it was built against are reproduced by the same
	// deterministic construction.
	seed(g, m, lay)

	var base sim.Time
	if opts.Recovery.Resume != nil {
		base = opts.Recovery.Resume.Cycles
	}
	rec := splitc.NewRecovery(rt, opts.Recovery)
	if opts.Injector != nil {
		opts.Injector.OnNodeCrash = rec.CrashNode
	}
	end, stats, err := rec.Run(func(c *splitc.Ctx) splitc.EpochFunc {
		pe := c.MyPE()
		return func(epoch int) bool {
			exchange(c, g, lay, pe, v)
			compute(c, g, lay, pe, v, knobs)
			c.Barrier()
			if pe == 0 && opts.Progress != nil {
				opts.Progress(epoch, base+c.P.Now())
			}
			return epoch < cfg.Iters // epoch 0 is the warm-up step
		}
	})

	total := base + end
	edges := g.edgeCount()
	res := Result{
		Version:    v,
		Cfg:        cfg,
		NProc:      nproc,
		Cycles:     total,
		EdgesPerPE: edges,
		Rewrites:   rt.Rewrites,
		Audits:     rt.Audits,
	}
	if err == nil {
		res.Validated = validate(g, m, lay)
		res.Digest = digest(g, m, lay)
		perEdge := float64(total) / float64(edges*int64(cfg.Iters))
		res.USPerEdge = perEdge * cpu.NSPerCycle / 1e3
		res.MFlopsPE = 2 / res.USPerEdge
	}
	return res, stats, err
}
