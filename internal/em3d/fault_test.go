package em3d

import (
	"testing"

	"repro/internal/fault"
)

func TestPutVersionValidatesUnderFaults(t *testing.T) {
	// The Put version moves every ghost value with one-way stores — the
	// faultable path. With Reliable set, AllStoreSync's write
	// verification must recover every damaged word and the physics must
	// still match the reference.
	cfg := smallCfg(0.4)
	cfg.Reliable = true
	m := NewMachine(4)
	in := fault.Inject(m, fault.Config{Seed: 51, DropRate: 0.05, CorruptRate: 0.02})
	res := Run(m, cfg, Put, DefaultKnobs())
	if !res.Validated {
		t.Fatal("Put version produced wrong E values under faults")
	}
	if in.Drops == 0 && in.Corrupts == 0 {
		t.Error("fault injection was configured but nothing was injected")
	}
}

func TestPutVersionSlowdownUnderFaults(t *testing.T) {
	// Same workload, same reliable runtime: the faulty fabric must cost
	// cycles relative to the clean one, and both must validate.
	cfg := smallCfg(0.4)
	cfg.Reliable = true
	clean := Run(NewMachine(4), cfg, Put, DefaultKnobs())
	m := NewMachine(4)
	fault.Inject(m, fault.Config{Seed: 52, DropRate: 0.1})
	faulty := Run(m, cfg, Put, DefaultKnobs())
	if !clean.Validated || !faulty.Validated {
		t.Fatalf("validation: clean=%v faulty=%v", clean.Validated, faulty.Validated)
	}
	if faulty.Cycles < clean.Cycles {
		t.Errorf("faulty run (%d cycles) beat the clean run (%d cycles)", faulty.Cycles, clean.Cycles)
	}
}

func TestFaultyRunReplayable(t *testing.T) {
	// Same seed, same workload ⇒ identical cycle counts end to end.
	run := func() Result {
		cfg := smallCfg(0.3)
		cfg.Reliable = true
		m := NewMachine(4)
		fault.Inject(m, fault.Config{Seed: 90, DropRate: 0.08, CorruptRate: 0.04})
		return Run(m, cfg, Put, DefaultKnobs())
	}
	a, b := run(), run()
	if !a.Validated || !b.Validated {
		t.Fatalf("validation: a=%v b=%v", a.Validated, b.Validated)
	}
	if a.Cycles != b.Cycles {
		t.Errorf("cycle counts differ across identically seeded runs: %d vs %d", a.Cycles, b.Cycles)
	}
}
