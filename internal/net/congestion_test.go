package net

import (
	"testing"

	"repro/internal/sim"
)

// TestCongestionMarking: a burst of data packets crammed through one
// link picks up congestion-experienced marks once queueing passes the
// threshold, while a lone packet stays clean.
func TestCongestionMarking(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(8)
	cfg.MarkThreshold = 50
	n := New(eng, cfg)

	var marks, total int
	send := func() {
		n.SendData(0, 1, 32, func(f Fault, marked bool) {
			total++
			if marked {
				marks++
			}
			if f != FaultNone {
				t.Errorf("unfaulted packet delivered %v", f)
			}
		})
	}
	send() // lone packet: no queueing, never marked
	eng.Run()
	if marks != 0 {
		t.Fatalf("lone packet was marked")
	}

	// 40 packets injected at the same instant serialize on the 0->1
	// link: occupancy is 1 + 4*2 = 9 cycles each, so queueing delay
	// crosses the 50-cycle threshold from roughly the 7th packet on.
	for i := 0; i < 40; i++ {
		send()
	}
	eng.Run()
	if marks < 20 {
		t.Errorf("burst produced %d marks of %d packets, want a clear majority", marks, total-1)
	}
	if n.MarkedPackets != int64(marks) {
		t.Errorf("MarkedPackets = %d, delivered marks = %d", n.MarkedPackets, marks)
	}
}

// TestMarkingDisabledAndControlPackets: a zero threshold never marks,
// and control packets (Send) never mark regardless of congestion.
func TestMarkingDisabledAndControlPackets(t *testing.T) {
	eng := sim.NewEngine()
	cfg := DefaultConfig(8)
	cfg.MarkThreshold = 0
	n := New(eng, cfg)
	for i := 0; i < 50; i++ {
		n.SendData(0, 1, 64, func(f Fault, marked bool) {
			if marked {
				t.Error("marking disabled but packet arrived marked")
			}
		})
		n.Send(0, 1, 64, func() {})
	}
	eng.Run()
	if n.MarkedPackets != 0 {
		t.Errorf("MarkedPackets = %d with marking disabled", n.MarkedPackets)
	}
}

// TestLinkBacklog: committed occupancy shows up as backlog and an idle
// link reports zero.
func TestLinkBacklog(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, DefaultConfig(8))
	if b := n.LinkBacklog(0, 0); b != 0 {
		t.Fatalf("idle link backlog = %d", b)
	}
	for i := 0; i < 10; i++ {
		n.SendData(0, 1, 64, func(Fault, bool) {})
	}
	// Before the engine runs, all ten packets' occupancy is committed on
	// the +x link out of node 0 (dimension-order route 0 -> 1).
	if b := n.LinkBacklog(0, 0); b <= 0 {
		t.Fatalf("burst backlog = %d, want positive", b)
	}
	eng.Run()
}

// TestValidateMarkThreshold rejects a negative threshold.
func TestValidateMarkThreshold(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.MarkThreshold = -1
	if err := cfg.Validate(8); err == nil {
		t.Fatal("negative MarkThreshold validated")
	}
}
