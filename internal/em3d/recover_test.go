package em3d

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/fault"
	"repro/internal/machine"
	"repro/internal/mem"
	"repro/internal/shell"
	"repro/internal/sim"
	"repro/internal/splitc"
)

// recoverableRun drives one recoverable EM3D run under the given fault
// config and fails the test on an unrecoverable error.
func recoverableRun(t *testing.T, v Version, fcfg fault.Config) (Result, splitc.RecoveryStats) {
	t.Helper()
	cfg := smallCfg(0.4)
	cfg.Reliable = true
	m := NewMachine(4)
	in := fault.Inject(m, fcfg)
	res, stats, err := RunRecoverable(m, cfg, v, DefaultKnobs(), splitc.RecoveryConfig{}, in)
	if err != nil {
		t.Fatalf("recoverable run failed: %v", err)
	}
	return res, stats
}

func TestRecoverableCleanRunMatchesPlain(t *testing.T) {
	// With no faults injected, the recoverable runner must compute the
	// same physics as the plain runner — bit for bit.
	cfg := smallCfg(0.4)
	cfg.Reliable = true
	plain := Run(NewMachine(4), cfg, Put, DefaultKnobs())
	res, stats := recoverableRun(t, Put, fault.Config{})
	if !res.Validated {
		t.Fatal("clean recoverable run does not validate")
	}
	if res.Digest != plain.Digest {
		t.Errorf("digest %#x differs from plain run %#x", res.Digest, plain.Digest)
	}
	if stats.Rollbacks != 0 {
		t.Errorf("clean run rolled back %d times", stats.Rollbacks)
	}
	// One pre-run image, one post-setup checkpoint, one per epoch.
	if stats.Checkpoints < int64(cfg.Iters)+2 {
		t.Errorf("only %d checkpoints for %d epochs", stats.Checkpoints, cfg.Iters+1)
	}
}

func TestRecoverableSurvivesNodeCrash(t *testing.T) {
	// A node hard-faults mid-run, losing its memory. Rollback must replay
	// from the last checkpoint and land on bit-identical results.
	clean, _ := recoverableRun(t, Put, fault.Config{})
	res, stats := recoverableRun(t, Put, fault.Config{
		Seed: 5, HardNodeFaults: 1, Horizon: 25000,
	})
	if !res.Validated {
		t.Fatal("run does not validate after node crash recovery")
	}
	if stats.NodeCrashes == 0 {
		t.Fatal("no crash was injected — horizon too long for this workload?")
	}
	if stats.Rollbacks == 0 {
		t.Error("a crash was injected but nothing rolled back")
	}
	if res.Digest != clean.Digest {
		t.Errorf("digest %#x differs from fault-free %#x: recovery changed the physics", res.Digest, clean.Digest)
	}
	if res.Cycles <= clean.Cycles {
		t.Errorf("crashed run (%d cycles) not slower than clean run (%d)", res.Cycles, clean.Cycles)
	}
}

func TestRecoverableSurvivesHardLinkFault(t *testing.T) {
	// A link dies permanently mid-run: the fabric must reroute around it
	// and the computation must still be bit-identical.
	clean, _ := recoverableRun(t, Get, fault.Config{})
	cfg := smallCfg(0.4)
	cfg.Reliable = true
	m := NewMachine(8)
	in := fault.Inject(m, fault.Config{Seed: 9, HardLinkFaults: 1, Horizon: 15000})
	res, stats, err := RunRecoverable(m, cfg, Get, DefaultKnobs(), splitc.RecoveryConfig{}, in)
	if err != nil {
		t.Fatalf("recoverable run failed: %v", err)
	}
	if in.HardLinkFails == 0 {
		t.Fatal("no link fault fired — horizon too long for this workload?")
	}
	if !res.Validated {
		t.Fatal("run does not validate after hard link fault")
	}
	_ = clean
	_ = stats
	if m.Net.ReroutedPackets == 0 {
		t.Error("a link died but no packet was rerouted")
	}
}

func TestRecoverableCombinedHardFaults(t *testing.T) {
	// The acceptance scenario: at least one permanent link fault AND one
	// node hard-fault in the same run, with transient drops on top; the
	// result must be bit-identical to the fault-free run.
	clean, _ := recoverableRun(t, Put, fault.Config{})
	res, stats := recoverableRun(t, Put, fault.Config{
		Seed:           77,
		DropRate:       0.02,
		HardLinkFaults: 1,
		HardNodeFaults: 1,
		Horizon:        25000,
	})
	if !res.Validated {
		t.Fatal("run does not validate under combined hard faults")
	}
	if stats.NodeCrashes == 0 {
		t.Fatal("no node crash fired")
	}
	if res.Digest != clean.Digest {
		t.Errorf("digest %#x differs from fault-free %#x", res.Digest, clean.Digest)
	}
}

// TestRollbackDrainsFetchHintsBeforeDiscard: two node crashes close
// together roll a Get run back while fetch hints still sit in the
// write buffer. The rollback must drain them (MB) before it empties the
// prefetch FIFO, or they land in the FIFO afterwards and the replayed
// epoch's prefetches overflow it.
func TestRollbackDrainsFetchHintsBeforeDiscard(t *testing.T) {
	cfg := Config{NodesPerPE: 24, Degree: 4, RemoteFrac: 0.4, Seed: 1, Iters: 3, Reliable: true}
	run := func(fcfg fault.Config) (Result, splitc.RecoveryStats, error) {
		m := NewMachine(4)
		return RunRecoverable(m, cfg, Get, DefaultKnobs(), splitc.RecoveryConfig{}, fault.Inject(m, fcfg))
	}
	clean, _, err := run(fault.Config{})
	if err != nil {
		t.Fatalf("fault-free run: %v", err)
	}
	res, stats, err := run(fault.Config{Seed: 5, HardNodeFaults: 2, Horizon: 4000, DropRate: 0.01})
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if !res.Validated {
		t.Fatal("run does not validate after rollback")
	}
	if stats.Rollbacks < 1 {
		t.Fatalf("no rollback (%d node crashes): the reproducer no longer reaches the rollback path", stats.NodeCrashes)
	}
	if res.Digest != clean.Digest {
		t.Errorf("digest %#x differs from fault-free %#x", res.Digest, clean.Digest)
	}
}

// copySnap deep-copies a sink-borrowed MachineSnapshot (its buffers are
// only valid for the duration of the Sink call).
func copySnap(ms *splitc.MachineSnapshot) *splitc.MachineSnapshot {
	cp := *ms
	cp.Mem = make([]mem.Image, len(ms.Mem))
	cp.Regs = append([]shell.RegSnapshot(nil), ms.Regs...)
	cp.Heap = append([]int64(nil), ms.Heap...)
	for pe, img := range ms.Mem {
		cp.Mem[pe] = mem.Image{Size: img.Size, Pages: slices.Clone(img.Pages), Data: slices.Clone(img.Data)}
	}
	return &cp
}

// The tentpole identity: a run killed at any checkpoint and resumed on
// a fresh machine lands on the same digest as the uninterrupted run.
func TestResumeFromCheckpointBitIdentical(t *testing.T) {
	cfg := smallCfg(0.4)
	cfg.Reliable = true
	var caps []*splitc.MachineSnapshot
	var cleanEpochs []int
	clean, _, err := RunRecoverableOpts(NewMachine(4), cfg, Put, DefaultKnobs(), RecoverOpts{
		Recovery: splitc.RecoveryConfig{Sink: func(ms *splitc.MachineSnapshot) {
			caps = append(caps, copySnap(ms))
		}},
		Progress: func(epoch int, _ sim.Time) { cleanEpochs = append(cleanEpochs, epoch) },
	})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if !clean.Validated {
		t.Fatal("clean run does not validate")
	}
	// One sink call per committed non-final checkpoint: post-setup
	// (epoch 0) plus one per epoch except the last.
	if len(caps) < cfg.Iters {
		t.Fatalf("only %d checkpoints reached the sink for %d iters", len(caps), cfg.Iters)
	}
	// The digest covers only the final E field, which every epoch
	// recomputes from the constant initial H, so it cannot see a resume
	// that skips or repeats epochs; the epoch sequence can.
	want := make([]int, cfg.Iters+1)
	for i := range want {
		want[i] = i
	}
	if !slices.Equal(cleanEpochs, want) {
		t.Fatalf("clean run reported epochs %v, want %v", cleanEpochs, want)
	}
	for _, cp := range caps {
		pristine := copySnap(cp)
		var epochs []int
		res, stats, err := RunRecoverableOpts(NewMachine(4), cfg, Put, DefaultKnobs(), RecoverOpts{
			Recovery: splitc.RecoveryConfig{Resume: cp},
			Progress: func(epoch int, _ sim.Time) { epochs = append(epochs, epoch) },
		})
		if err != nil {
			t.Fatalf("resume from epoch %d: %v", cp.Epoch, err)
		}
		if !res.Validated {
			t.Fatalf("resume from epoch %d does not validate", cp.Epoch)
		}
		if res.Digest != clean.Digest {
			t.Fatalf("resume from epoch %d: digest %#x differs from uninterrupted %#x",
				cp.Epoch, res.Digest, clean.Digest)
		}
		if !slices.Equal(epochs, cleanEpochs[cp.Epoch:]) {
			t.Fatalf("resume from epoch %d ran epochs %v, want %v once each",
				cp.Epoch, epochs, cleanEpochs[cp.Epoch:])
		}
		if res.Cycles <= cp.Cycles {
			t.Fatalf("resume from epoch %d: cycles %d do not include the %d-cycle base",
				cp.Epoch, res.Cycles, cp.Cycles)
		}
		if stats.Rollbacks != 0 {
			t.Fatalf("clean resume rolled back %d times", stats.Rollbacks)
		}
		if !reflect.DeepEqual(cp, pristine) {
			t.Fatalf("resume from epoch %d wrote into the caller's snapshot", cp.Epoch)
		}
	}
}

// A resumed run that crashes again must roll back to the resume image
// (never earlier) and still finish bit-identical.
func TestResumeSurvivesFurtherCrash(t *testing.T) {
	cfg := smallCfg(0.4)
	cfg.Reliable = true
	clean, _, err := RunRecoverableOpts(NewMachine(4), cfg, Put, DefaultKnobs(), RecoverOpts{})
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	var mid *splitc.MachineSnapshot
	_, _, err = RunRecoverableOpts(NewMachine(4), cfg, Put, DefaultKnobs(), RecoverOpts{
		Recovery: splitc.RecoveryConfig{Sink: func(ms *splitc.MachineSnapshot) {
			if mid == nil && ms.Epoch >= 1 {
				mid = copySnap(ms)
			}
		}},
	})
	if err != nil || mid == nil {
		t.Fatalf("no mid-run checkpoint captured (err %v)", err)
	}
	m := NewMachine(4)
	in := fault.Inject(m, fault.Config{Seed: 5, HardNodeFaults: 1, Horizon: 25000})
	res, stats, err := RunRecoverableOpts(m, cfg, Put, DefaultKnobs(), RecoverOpts{
		Recovery: splitc.RecoveryConfig{Resume: mid}, Injector: in,
	})
	if err != nil {
		t.Fatalf("resumed run with crash: %v", err)
	}
	if stats.NodeCrashes == 0 {
		t.Skip("no crash landed inside the resumed tail; nothing to assert")
	}
	if res.Digest != clean.Digest {
		t.Fatalf("digest %#x differs from uninterrupted %#x after resume+crash", res.Digest, clean.Digest)
	}
}

func TestResumeFromRejectsWrongShape(t *testing.T) {
	cfg := smallCfg(0.4)
	var cp *splitc.MachineSnapshot
	_, _, err := RunRecoverableOpts(NewMachine(4), cfg, Put, DefaultKnobs(), RecoverOpts{
		Recovery: splitc.RecoveryConfig{Sink: func(ms *splitc.MachineSnapshot) {
			if cp == nil {
				cp = copySnap(ms)
			}
		}},
	})
	if err != nil || cp == nil {
		t.Fatalf("no checkpoint captured (err %v)", err)
	}
	// Images must be valid page sets of the node's DRAM size; epoch -1
	// names the pre-run image, which is not a resume point.
	if len(cp.Mem[0].Pages) < 2 {
		t.Fatalf("pe0's checkpoint holds %d pages; the cases below need 2", len(cp.Mem[0].Pages))
	}
	bad := func(edit func(img *mem.Image)) *splitc.MachineSnapshot {
		c := copySnap(cp)
		edit(&c.Mem[0])
		return c
	}
	neg := copySnap(cp)
	neg.Epoch = -1
	for _, tc := range []struct {
		what string
		m    *machine.T3D
		snap *splitc.MachineSnapshot
	}{
		{"a 4-PE snapshot on an 8-PE machine", NewMachine(8), cp},
		{"page data shorter than the page table", NewMachine(4), bad(func(img *mem.Image) {
			img.Data = img.Data[:len(img.Data)-mem.PageSize/2]
		})},
		{"pages out of order", NewMachine(4), bad(func(img *mem.Image) {
			img.Pages[0], img.Pages[1] = img.Pages[1], img.Pages[0]
		})},
		{"a repeated page", NewMachine(4), bad(func(img *mem.Image) { img.Pages[1] = img.Pages[0] })},
		{"a page past the end of DRAM", NewMachine(4), bad(func(img *mem.Image) {
			img.Pages[len(img.Pages)-1] = int(img.Size / mem.PageSize)
		})},
		{"an image of a larger DRAM", NewMachine(4), bad(func(img *mem.Image) { img.Size *= 2 })},
		{"epoch -1", NewMachine(4), neg},
	} {
		if tc.snap.Fits(tc.m) == nil {
			t.Errorf("Fits accepted %s", tc.what)
		}
		if _, _, err := RunRecoverableOpts(tc.m, cfg, Put, DefaultKnobs(), RecoverOpts{
			Recovery: splitc.RecoveryConfig{Resume: tc.snap},
		}); err == nil {
			t.Errorf("resume of %s succeeded", tc.what)
		}
	}
	if err := cp.Fits(NewMachine(4)); err != nil {
		t.Fatalf("Fits refused the snapshot on its own machine shape: %v", err)
	}
}

func TestRecoverableReplayDeterminism(t *testing.T) {
	// Satellite: same seed and schedule ⇒ identical final cycle count,
	// rollback count, and rerouted-hop totals across two runs.
	run := func() (Result, splitc.RecoveryStats, int64, int64) {
		cfg := smallCfg(0.4)
		cfg.Reliable = true
		m := NewMachine(4)
		in := fault.Inject(m, fault.Config{
			Seed: 13, DropRate: 0.03, HardLinkFaults: 1, HardNodeFaults: 1, Horizon: 25000,
		})
		res, stats, err := RunRecoverable(m, cfg, Put, DefaultKnobs(), splitc.RecoveryConfig{}, in)
		if err != nil {
			t.Fatalf("recoverable run failed: %v", err)
		}
		return res, stats, m.Net.ReroutedPackets, m.Net.ExtraHops
	}
	resA, statsA, reroutedA, extraA := run()
	resB, statsB, reroutedB, extraB := run()
	if resA.Cycles != resB.Cycles {
		t.Errorf("cycle counts differ: %d vs %d", resA.Cycles, resB.Cycles)
	}
	if statsA.Rollbacks != statsB.Rollbacks || statsA.NodeCrashes != statsB.NodeCrashes {
		t.Errorf("recovery differs: rollbacks %d vs %d, crashes %d vs %d",
			statsA.Rollbacks, statsB.Rollbacks, statsA.NodeCrashes, statsB.NodeCrashes)
	}
	if reroutedA != reroutedB || extraA != extraB {
		t.Errorf("rerouting differs: packets %d vs %d, extra hops %d vs %d",
			reroutedA, reroutedB, extraA, extraB)
	}
	if resA.Digest != resB.Digest {
		t.Errorf("digests differ: %#x vs %#x", resA.Digest, resB.Digest)
	}
}
