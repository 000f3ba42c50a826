package machine

import (
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

// workload drives a representative mix of machine mechanisms.
func workload(p *sim.Proc, n *Node) {
	n.Shell.SetAnnex(p, 1, (n.PE+1)%2, false)
	for i := int64(0); i < 16; i++ {
		n.CPU.Store64(p, addr.Make(1, i*64), uint64(n.PE)<<32|uint64(i))
	}
	n.CPU.MB(p)
	n.Shell.WaitWritesComplete(p)
	for i := int64(0); i < 8; i++ {
		n.CPU.FetchHint(p, addr.Make(1, i*8))
	}
	n.CPU.MB(p)
	for i := 0; i < 8; i++ {
		n.Shell.PopPrefetch(p)
	}
	tk := n.Shell.BarrierStart(p)
	n.Shell.BarrierEnd(p, tk)
	n.Shell.FetchInc(p, 0, 0)
}

func TestDeterministicReplay(t *testing.T) {
	// The simulator must be bit-for-bit deterministic: identical builds
	// and workloads give identical final times and counters.
	run := func() (sim.Time, Stats) {
		m := New(DefaultConfig(2))
		end := m.Run(workload)
		return end, m.Stats()
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 {
		t.Errorf("replay diverged: %d vs %d cycles", t1, t2)
	}
	if s1 != s2 {
		t.Errorf("counters diverged:\n%+v\n%+v", s1, s2)
	}
}

func TestConfigShapeMismatchPanics(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.PEs = 8 // shape still factors 4
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	New(cfg)
}

func TestZeroPEsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero PEs did not panic")
		}
	}()
	cfg := DefaultConfig(1)
	cfg.PEs = 0
	New(cfg)
}

func TestRunOnLeavesOthersPassive(t *testing.T) {
	m := New(DefaultConfig(4))
	m.RunOn(2, func(p *sim.Proc, n *Node) {
		if n.PE != 2 {
			t.Errorf("RunOn gave PE %d", n.PE)
		}
		n.CPU.Load64(p, 0)
	})
	for pe, n := range m.Nodes {
		if pe != 2 && n.CPU.Loads != 0 {
			t.Errorf("passive PE %d executed loads", pe)
		}
	}
}

func TestNewCheckedRejectsBadConfigs(t *testing.T) {
	if _, err := NewChecked(Config{PEs: 0}); err == nil {
		t.Error("zero PEs accepted")
	}
	cfg := DefaultConfig(4)
	cfg.Net.Shape = [3]int{2, 1, 1} // 2 nodes for 4 PEs
	if _, err := NewChecked(cfg); err == nil {
		t.Error("shape/PE mismatch accepted")
	}
	cfg = DefaultConfig(4)
	cfg.Net.Shape = [3]int{-4, 1, 1}
	if _, err := NewChecked(cfg); err == nil {
		t.Error("negative shape accepted")
	}
	cfg = DefaultConfig(2)
	cfg.MemBytes = 0
	if _, err := NewChecked(cfg); err == nil {
		t.Error("zero memory accepted")
	}
	// DefaultConfig must stay panic-free on bad counts so the checked
	// constructor is reachable through the standard helper.
	if _, err := NewChecked(DefaultConfig(-2)); err == nil {
		t.Error("negative PE count accepted")
	}
	if _, err := NewChecked(DefaultConfig(2)); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestNewCheckedRejectsL1LineSize: the CPU and shell stage a line fill
// in a cache.MaxLineSize buffer, so a wider L1 line, or one that is not
// a power of two, is refused up front rather than panicking on a miss.
func TestNewCheckedRejectsL1LineSize(t *testing.T) {
	for _, ls := range []int64{48, 256} {
		cfg := DefaultConfig(2)
		cfg.L1.LineSize = ls
		if _, err := NewChecked(cfg); err == nil {
			t.Errorf("%d-byte L1 lines accepted", ls)
		}
	}
}
