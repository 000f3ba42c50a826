package serve

import (
	"fmt"
	"math/rand"
	"sync/atomic"

	"repro/internal/apps"
	"repro/internal/em3d"
	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// CancelPollEvents is how many simulation events run between host
// cancel polls: frequent enough that a wall deadline lands within
// milliseconds, rare enough that the poll never shows on a profile.
//
// It is also the effective granularity floor for everything the host
// injects into a run — cancelation, and the durable-checkpoint cadence:
// a checkpoint interval finer than the poll stride could fire no more
// often than the epochs the engine actually reaches between polls, so
// MinCheckpointCycles clamps spec cadences up to it (see
// JobSpec.Normalize). In practice epochs are thousands of times longer
// and the clamp is documentation, not behavior.
const CancelPollEvents = 4096

// MinCheckpointCycles is the floor Normalize clamps a non-zero
// checkpoint cadence to.
const MinCheckpointCycles = CancelPollEvents

// Progress is the cycle-accurate partial state of a running job,
// exported by the simulation's progress hook and read concurrently by
// status handlers — hence the atomics.
type Progress struct {
	Iters      atomic.Int64 // timed iterations completed
	TotalIters atomic.Int64 // iterations the job will run (0 if unknown)
	Cycles     atomic.Int64 // simulated cycles elapsed in the timed phase

	// Durable-checkpoint state of the current run: the epoch and banked
	// cycles of the checkpoint it resumed from (zero for a fresh run),
	// and how many checkpoints this run has published / failed to
	// publish. Resumed reports whether a resume actually happened —
	// distinct from ResumeEpoch because epoch 0 is a valid resume point.
	Resumed         atomic.Bool
	ResumeEpoch     atomic.Int64
	ResumeCycles    atomic.Int64
	Checkpoints     atomic.Int64
	CheckpointFails atomic.Int64
}

// Snapshot is one consistent-enough read of a job's progress.
type Snapshot struct {
	Iters      int64 `json:"iters"`
	TotalIters int64 `json:"total_iters,omitempty"`
	Cycles     int64 `json:"cycles"`

	Resumed         bool  `json:"resumed,omitempty"`
	ResumeEpoch     int64 `json:"resume_epoch,omitempty"`
	ResumeCycles    int64 `json:"resume_cycles,omitempty"`
	Checkpoints     int64 `json:"checkpoints,omitempty"`
	CheckpointFails int64 `json:"checkpoint_fails,omitempty"`
}

// Read returns the current snapshot.
func (p *Progress) Read() Snapshot {
	return Snapshot{
		Iters: p.Iters.Load(), TotalIters: p.TotalIters.Load(), Cycles: p.Cycles.Load(),
		Resumed:     p.Resumed.Load(),
		ResumeEpoch: p.ResumeEpoch.Load(), ResumeCycles: p.ResumeCycles.Load(),
		Checkpoints: p.Checkpoints.Load(), CheckpointFails: p.CheckpointFails.Load(),
	}
}

// RunBatch executes one spec synchronously with no budgets, no
// cancelation, and no server: the batch harness entry point. Its result
// is bit-identical to what the service computes and caches for the same
// spec — the comparator the serve-smoke gate is built on.
func RunBatch(spec JobSpec) (JobResult, error) {
	if err := spec.Validate(); err != nil {
		return JobResult{}, err
	}
	return runSpec(spec, 0, nil, nil, nil)
}

// runSpec executes one spec on a fresh machine. cycleLimit bounds the
// simulated cycles (0 = unbounded); cancel, polled from inside the
// event loop, aborts the run with its error (wall deadlines, drain).
// The machine is always reaped with Engine.Shutdown before return, so
// an aborted run leaks no proc goroutines. Every error path reports a
// structured error classified by Classify; the bit-exact Result of a
// completed run is independent of budgets, cancelation timing, and
// host scheduling — the property the cache is built on.
//
// ck, when non-nil with a positive interval, routes em3d through the
// recoverable runner with a durable-checkpoint sink and (when the
// job's journal carries valid checkpoint references) a resume image —
// the crash-recovery RTO path. Checkpointing never changes the digest;
// it may change Cycles slightly (the recoverable runner pays epoch
// barrier costs the plain runner does not), which is why cadence stays
// out of the canonical hash but Cycles stays an honest account of the
// work the service performed.
func runSpec(spec JobSpec, cycleLimit int64, cancel func() error, prog *Progress, ck *ckptRun) (JobResult, error) {
	n := spec.Normalize()
	mcfg := machine.DefaultConfig(n.PEs)
	mcfg.MemBytes = n.MemBytes
	m, err := machine.NewChecked(mcfg)
	if err != nil {
		return JobResult{}, fmt.Errorf("serve: machine config: %w", err)
	}
	defer m.Eng.Shutdown()
	if cycleLimit > 0 {
		m.Eng.Limit = cycleLimit
	}
	if cancel != nil {
		m.Eng.SetCancelPoll(CancelPollEvents, cancel)
	}
	if n.Fault.enabled() {
		fault.NewInjector(fault.NewSchedule(n.Fault.config(), n.PEs)).Attach(m)
	}

	switch n.App {
	case AppEM3D:
		v, ok := parseVersion(n.Version)
		if !ok {
			return JobResult{}, fmt.Errorf("serve: version: unknown em3d version %q", n.Version)
		}
		cfg := em3d.Config{
			NodesPerPE: n.NodesPerPE, Degree: n.Degree, RemoteFrac: n.RemoteFrac,
			Seed: n.Seed, Iters: n.Iters, Reliable: n.Reliable, Audit: n.Audit,
		}
		if prog != nil {
			prog.TotalIters.Store(int64(n.Iters))
		}
		var res em3d.Result
		if ck != nil && ck.interval > 0 {
			res, err = ck.run(m, cfg, v, prog)
		} else {
			var hooks em3d.Hooks
			if prog != nil {
				hooks.Progress = func(iter int, now sim.Time) {
					prog.Iters.Store(int64(iter))
					prog.Cycles.Store(now)
				}
			}
			res, err = em3d.RunChecked(m, cfg, v, em3d.DefaultKnobs(), hooks)
		}
		if err != nil {
			return JobResult{}, err
		}
		return JobResult{
			App: AppEM3D, Digest: fmt.Sprintf("%016x", res.Digest),
			Cycles: res.Cycles, Validated: res.Validated, USPerEdge: res.USPerEdge,
			Rewrites: res.Rewrites, Audits: res.Audits,
		}, nil

	case AppSampleSort:
		rtCfg := splitc.DefaultConfig()
		rtCfg.Reliable = n.Reliable
		rtCfg.Audit = n.Audit
		rt := splitc.NewRuntime(m, rtCfg)
		res, err := apps.SampleSortChecked(rt, sortKeys(n.PEs, n.KeysPerPE, n.Seed))
		if err != nil {
			return JobResult{}, err
		}
		if prog != nil {
			prog.Cycles.Store(res.Cycles)
		}
		return JobResult{
			App: AppSampleSort, Digest: fmt.Sprintf("%016x", res.Digest),
			Cycles: res.Cycles, Validated: res.Validated,
			Rewrites: rt.Rewrites, Audits: rt.Audits,
		}, nil
	}
	return JobResult{}, fmt.Errorf("serve: app: unknown app %q", n.App)
}

// sortKeys derives the deterministic samplesort input: an explicitly
// seeded source, so the same (seed, pes, keys_per_pe) always sorts the
// same data.
func sortKeys(pes, perPE int, seed int64) [][]uint64 {
	rng := rand.New(rand.NewSource(seed))
	keys := make([][]uint64, pes)
	for pe := range keys {
		keys[pe] = make([]uint64, perPE)
		for i := range keys[pe] {
			keys[pe][i] = rng.Uint64()
		}
	}
	return keys
}
