package machine

import (
	"strings"
	"testing"

	"repro/internal/addr"
	"repro/internal/sim"
)

func TestStatsAggregation(t *testing.T) {
	m := New(DefaultConfig(2))
	m.RunOn(0, func(p *sim.Proc, n *Node) {
		n.Shell.SetAnnex(p, 1, 1, false)
		n.CPU.Load64(p, 0)               // local
		n.CPU.Load64(p, addr.Make(1, 0)) // remote
		n.CPU.Store64(p, addr.Make(1, 8), 1)
		n.CPU.MB(p)
		n.Shell.WaitWritesComplete(p)
		n.CPU.FetchHint(p, addr.Make(1, 64))
		n.CPU.MB(p)
		n.Shell.PopPrefetch(p)
	})
	s := m.Stats()
	if s.Loads != 2 || s.Stores != 1 {
		t.Errorf("Loads=%d Stores=%d", s.Loads, s.Stores)
	}
	if s.RemoteReads != 1 || s.RemoteWrites != 1 || s.Prefetches != 1 {
		t.Errorf("shell counters = %+v", s)
	}
	if s.AnnexUpdates != 1 {
		t.Errorf("AnnexUpdates = %d", s.AnnexUpdates)
	}
	if s.NetPackets == 0 || s.NetPayload == 0 {
		t.Error("network counters empty")
	}
}

func TestStatsRender(t *testing.T) {
	m := New(DefaultConfig(2))
	m.RunOn(0, func(p *sim.Proc, n *Node) { n.CPU.Load64(p, 0) })
	var sb strings.Builder
	m.Stats().Render(&sb)
	for _, want := range []string{"loads", "write buffer", "shell", "network", "barrier"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("stats output missing %q:\n%s", want, sb.String())
		}
	}
}
