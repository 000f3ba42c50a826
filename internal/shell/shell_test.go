package shell

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/wbuf"
)

// testFabric builds an n-node fabric with bare shells (no CPUs): enough
// to exercise the shell's own mechanisms directly.
func testFabric(n int) (*sim.Engine, *Fabric) {
	eng := sim.NewEngine()
	network := net.New(eng, net.DefaultConfig(n))
	fab := NewFabric(eng, network, DefaultConfig())
	for i := 0; i < n; i++ {
		fab.AddNode(mem.New(mem.T3DNodeConfig(1<<20)), cache.New(cache.T3DL1Config()))
	}
	return eng, fab
}

func TestAddNodeAssignsPEs(t *testing.T) {
	_, fab := testFabric(4)
	for i, n := range fab.Nodes {
		if n.PE != i || n.Shell.PE() != i {
			t.Errorf("node %d numbered %d/%d", i, n.PE, n.Shell.PE())
		}
	}
}

func TestTooManyNodesPanics(t *testing.T) {
	eng := sim.NewEngine()
	network := net.New(eng, net.DefaultConfig(1))
	fab := NewFabric(eng, network, DefaultConfig())
	fab.AddNode(mem.New(mem.T3DNodeConfig(1<<20)), cache.New(cache.T3DL1Config()))
	defer func() {
		if recover() == nil {
			t.Error("extra AddNode did not panic")
		}
	}()
	fab.AddNode(mem.New(mem.T3DNodeConfig(1<<20)), cache.New(cache.T3DL1Config()))
}

func TestAnnexZeroImmutable(t *testing.T) {
	eng, fab := testFabric(2)
	defer func() {
		if r := recover(); r == nil {
			t.Error("writing annex 0 did not panic")
		}
	}()
	eng.Spawn("p", func(p *sim.Proc) {
		fab.Nodes[0].Shell.SetAnnex(p, 0, 1, false)
	})
	eng.Run()
}

func TestAnnexTargetRangeChecked(t *testing.T) {
	eng, fab := testFabric(2)
	defer func() {
		if r := recover(); r == nil {
			t.Error("out-of-range annex target did not panic")
		}
	}()
	eng.Spawn("p", func(p *sim.Proc) {
		fab.Nodes[0].Shell.SetAnnex(p, 1, 7, false)
	})
	eng.Run()
}

func TestReadWordMovesData(t *testing.T) {
	eng, fab := testFabric(2)
	fab.Nodes[1].DRAM.Write64(0x80, 0xF00D)
	fab.Nodes[1].DRAM.Write32(0x90, 0x1234)
	eng.Spawn("p", func(p *sim.Proc) {
		s := fab.Nodes[0].Shell
		s.SetAnnex(p, 1, 1, false)
		if v := s.ReadWord(p, 1<<27|0x80, 8); v != 0xF00D {
			t.Errorf("ReadWord 8 = %#x", v)
		}
		if v := s.ReadWord(p, 1<<27|0x90, 4); v != 0x1234 {
			t.Errorf("ReadWord 4 = %#x", v)
		}
	})
	eng.Run()
}

func TestReadLineMovesWholeLine(t *testing.T) {
	eng, fab := testFabric(2)
	for i := int64(0); i < 4; i++ {
		fab.Nodes[1].DRAM.Write64(0xC0+i*8, uint64(i+1))
	}
	eng.Spawn("p", func(p *sim.Proc) {
		s := fab.Nodes[0].Shell
		s.SetAnnex(p, 1, 1, true)
		line := make([]byte, 32)
		s.ReadLine(p, 1<<27|0xC0, line)
		for i := 0; i < 4; i++ {
			if line[i*8] != byte(i+1) {
				t.Errorf("line word %d = %d", i, line[i*8])
			}
		}
	})
	eng.Run()
}

func TestBarrierGenerationTickets(t *testing.T) {
	eng := sim.NewEngine()
	b := NewBarrier(eng, 2, 3, 16)
	var order []string
	eng.Spawn("a", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			tk := b.Arm(p)
			b.Wait(p, tk)
			order = append(order, "a")
		}
	})
	eng.Spawn("b", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(50)
			tk := b.Arm(p)
			b.Wait(p, tk)
			order = append(order, "b")
		}
	})
	eng.Run()
	if b.Crossings != 3 {
		t.Errorf("crossings = %d", b.Crossings)
	}
	if len(order) != 6 {
		t.Errorf("%d exits", len(order))
	}
}

func TestFuzzyBarrierOverlapsWork(t *testing.T) {
	// A node arming early keeps computing between start and end; its
	// total time is max(work, barrier wait), not the sum.
	eng := sim.NewEngine()
	b := NewBarrier(eng, 2, 3, 16)
	var earlyDone sim.Time
	eng.Spawn("early", func(p *sim.Proc) {
		tk := b.Arm(p)
		p.Wait(500) // overlapped work
		b.Wait(p, tk)
		earlyDone = p.Now()
	})
	eng.Spawn("late", func(p *sim.Proc) {
		p.Wait(400)
		tk := b.Arm(p)
		b.Wait(p, tk)
	})
	eng.Run()
	// The early node's 500 cycles of work cover the wait for the late
	// arrival at 400; it should finish shortly after 503, not ~900.
	if earlyDone > 600 {
		t.Errorf("fuzzy barrier did not overlap: early node done at %d", earlyDone)
	}
}

func TestSwapSerializesConcurrentWinners(t *testing.T) {
	// Two nodes swap into the same word; exactly one observes the other's
	// value and the final memory holds one of the two.
	eng, fab := testFabric(3)
	fab.Nodes[2].DRAM.Write64(0x100, 999)
	var got [2]uint64
	for i := 0; i < 2; i++ {
		i := i
		eng.Spawn("swapper", func(p *sim.Proc) {
			s := fab.Nodes[i].Shell
			s.SetAnnex(p, 1, 2, false)
			got[i] = s.Swap(p, 1<<27|0x100, uint64(i+1))
		})
	}
	eng.Run()
	final := fab.Nodes[2].DRAM.Read64(0x100)
	vals := map[uint64]bool{got[0]: true, got[1]: true, final: true}
	// The three observed values must be a permutation of {999, 1, 2}.
	if !vals[999] || !(vals[1] || vals[2]) || len(vals) != 3 {
		t.Errorf("swap results %v final %d not a serialization", got, final)
	}
}

func TestFetchIncBadRegisterPanics(t *testing.T) {
	eng, fab := testFabric(2)
	defer func() {
		if recover() == nil {
			t.Error("bad F&I register did not panic")
		}
	}()
	eng.Spawn("p", func(p *sim.Proc) {
		fab.Nodes[0].Shell.FetchInc(p, 1, 2)
	})
	eng.Run()
}

func TestMessagePollEmpty(t *testing.T) {
	eng, fab := testFabric(2)
	eng.Spawn("p", func(p *sim.Proc) {
		if _, ok := fab.Nodes[0].Shell.PollMessage(p); ok {
			t.Error("empty queue returned a message")
		}
	})
	eng.Run()
}

func TestMessagesArriveInSendOrder(t *testing.T) {
	eng, fab := testFabric(2)
	var got []uint64
	eng.SpawnDaemon("recv", func(p *sim.Proc) {
		for {
			m := fab.Nodes[1].Shell.WaitMessage(p)
			got = append(got, m.Data[0])
		}
	})
	eng.Spawn("send", func(p *sim.Proc) {
		for i := uint64(0); i < 5; i++ {
			fab.Nodes[0].Shell.SendMessage(p, 1, [4]uint64{i})
		}
	})
	eng.Run()
	if len(got) != 5 {
		t.Fatalf("received %d messages", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("message order %v", got)
		}
	}
}

func TestBLTRejectsConcurrentStarts(t *testing.T) {
	eng, fab := testFabric(2)
	defer func() {
		if recover() == nil {
			t.Error("second BLT start did not panic")
		}
	}()
	eng.Spawn("p", func(p *sim.Proc) {
		s := fab.Nodes[0].Shell
		s.BLTStart(p, BLTRead, 1, 0, 0, 1<<16)
		s.BLTStart(p, BLTRead, 1, 0, 0, 8) // engine still busy
	})
	eng.Run()
}

func TestBLTBadSizePanics(t *testing.T) {
	eng, fab := testFabric(2)
	defer func() {
		if recover() == nil {
			t.Error("zero-size BLT did not panic")
		}
	}()
	eng.Spawn("p", func(p *sim.Proc) {
		fab.Nodes[0].Shell.BLTStart(p, BLTWrite, 1, 0, 0, 0)
	})
	eng.Run()
}

func TestStatusReadCost(t *testing.T) {
	eng, fab := testFabric(2)
	eng.Spawn("p", func(p *sim.Proc) {
		start := p.Now()
		fab.Nodes[0].Shell.ReadStatus(p)
		if d := p.Now() - start; d != fab.Cfg.StatusRead {
			t.Errorf("status read cost = %d", d)
		}
	})
	eng.Run()
}

func TestPopEmptyPrefetchQueuePanics(t *testing.T) {
	eng, fab := testFabric(2)
	defer func() {
		if recover() == nil {
			t.Error("empty pop did not panic")
		}
	}()
	eng.Spawn("p", func(p *sim.Proc) {
		fab.Nodes[0].Shell.PopPrefetch(p)
	})
	eng.Run()
}

func TestAnnexUpdateOrdersBehindBufferedStores(t *testing.T) {
	// The annex update is a store-conditional: it travels through the
	// write buffer and issues behind earlier stores, so rebinding the
	// register never misroutes stores already in flight. Without the
	// drainer hookup (bare fabric), this test demonstrates the misroute;
	// with it (as the machine wires things), data lands correctly.
	run := func(withDrainer bool) (uint64, uint64) {
		eng := sim.NewEngine()
		network := net.New(eng, net.DefaultConfig(4))
		fab := NewFabric(eng, network, DefaultConfig())
		var nodes []*Node
		for i := 0; i < 4; i++ {
			fab.AddNode(mem.New(mem.T3DNodeConfig(1<<20)), cache.New(cache.T3DL1Config()))
			nodes = append(nodes, fab.Nodes[i])
		}
		// A minimal CPU-side stand-in: drive the write buffer directly.
		cpu0 := newBufferedSender(eng, nodes[0].Shell)
		if withDrainer {
			nodes[0].Shell.SetDrainer(cpu0.wb)
		}
		eng.Spawn("sender", func(p *sim.Proc) {
			nodes[0].Shell.SetAnnex(p, 1, 1, false)
			// Queue enough stores to back up the 4-entry buffer...
			for i := int64(0); i < 6; i++ {
				cpu0.wb.PushWrite(p, int64(1)<<27|0x100+i*64, []byte{byte(i + 1)})
			}
			// ...then immediately rebind annex 1 to PE 2.
			nodes[0].Shell.SetAnnex(p, 1, 2, false)
			cpu0.wb.WaitEmpty(p)
			p.Wait(2000) // let everything commit
		})
		eng.Run()
		// Count how many of the 6 bytes landed on each node.
		var on1, on2 uint64
		for i := int64(0); i < 6; i++ {
			if nodes[1].DRAM.Read64(0x100+i*64)&0xFF != 0 {
				on1++
			}
			if nodes[2].DRAM.Read64(0x100+i*64)&0xFF != 0 {
				on2++
			}
		}
		return on1, on2
	}
	on1, on2 := run(true)
	if on1 != 6 || on2 != 0 {
		t.Errorf("with StC ordering: %d on PE1, %d on PE2; want all 6 on PE1", on1, on2)
	}
	on1, on2 = run(false)
	if on2 == 0 {
		t.Errorf("without ordering: expected misrouted stores on PE2, got %d/%d", on1, on2)
	}
}

// bufferedSender is a minimal write-buffer owner for shell tests.
type bufferedSender struct {
	wb *wbuf.Buffer
	sh *Shell
}

func newBufferedSender(eng *sim.Engine, sh *Shell) *bufferedSender {
	b := &bufferedSender{sh: sh}
	b.wb = wbuf.New(eng, 4, b)
	return b
}

func (b *bufferedSender) BeginDrain(e *wbuf.Entry) sim.Time { return b.sh.BeginInject(e) }

func (b *bufferedSender) FinishDrain(e *wbuf.Entry) { b.sh.FinishInject(e) }

func TestEurekaGlobalOR(t *testing.T) {
	eng := sim.NewEngine()
	e := NewEureka(eng, 3, 16)
	var sawAt [3]sim.Time
	for i := 0; i < 3; i++ {
		i := i
		eng.Spawn("poller", func(p *sim.Proc) {
			for !e.Poll(p) {
				p.Wait(10)
			}
			sawAt[i] = p.Now()
		})
	}
	eng.Spawn("finder", func(p *sim.Proc) {
		p.Wait(200)
		e.Trigger(p)
	})
	eng.Run()
	for i, at := range sawAt {
		if at < 200+16 {
			t.Errorf("poller %d saw the wire at %d, before trigger+propagation", i, at)
		}
		if at > 260 {
			t.Errorf("poller %d saw the wire late at %d", i, at)
		}
	}
}

func TestEurekaMultipleTriggersIdempotent(t *testing.T) {
	eng := sim.NewEngine()
	e := NewEureka(eng, 3, 16)
	eng.Spawn("a", func(p *sim.Proc) { e.Trigger(p) })
	eng.Spawn("b", func(p *sim.Proc) { e.Trigger(p) })
	eng.Spawn("w", func(p *sim.Proc) {
		e.WaitHigh(p)
	})
	eng.Run()
	if e.Triggers != 2 {
		t.Errorf("Triggers = %d", e.Triggers)
	}
}

func TestEurekaReset(t *testing.T) {
	eng := sim.NewEngine()
	e := NewEureka(eng, 3, 16)
	eng.Spawn("p", func(p *sim.Proc) {
		e.Trigger(p)
		p.Wait(50)
		if !e.Poll(p) {
			t.Error("wire not high after trigger")
		}
		e.Reset(p)
		if e.Poll(p) {
			t.Error("wire high after reset")
		}
	})
	eng.Run()
}

// TestLandWritesRunsLikeBytes: a remote write lands as one DRAM write
// per run of valid bytes, clean or corrupted in flight. Over words
// carrying injected single and double flips, the target's memory, fault
// table and integrity counters end exactly as if every valid byte had
// been written on its own.
func TestLandWritesRunsLikeBytes(t *testing.T) {
	const base, lines = 0x4000, 16
	rng := rand.New(rand.NewSource(24))
	_, fab := testFabric(2)
	s, rn := fab.Nodes[0].Shell, fab.Nodes[1]
	ref := mem.New(mem.T3DNodeConfig(1 << 20))
	rn.DRAM.SetECC(true)
	ref.SetECC(true)
	for i := 0; i < 2000; i++ {
		if i%3 == 0 {
			w := base + int64(rng.Intn(lines*wbuf.LineSize/8))*8
			flip := uint64(1) << rng.Intn(64)
			if rng.Intn(2) == 0 {
				flip |= 1 << rng.Intn(64)
			}
			rn.DRAM.InjectFlip(w, flip)
			ref.InjectFlip(w, flip)
		}
		tx := s.newWriteTx()
		tx.rn, tx.lineOff = rn, base+int64(rng.Intn(lines))*wbuf.LineSize
		tx.entry = wbuf.Entry{Kind: wbuf.KindWrite, LineAddr: tx.lineOff, Mask: rng.Uint32()}
		switch rng.Intn(3) {
		case 0:
			tx.entry.Mask &= rng.Uint32() // sparse: short runs
		case 1:
			tx.entry.Mask |= rng.Uint32() // dense: long runs
		}
		rng.Read(tx.entry.Data[:])
		var flipByte byte
		if rng.Intn(4) == 0 {
			tx.fault, flipByte = net.FaultCorrupt, 0xA5
		}
		e := tx.entry
		tx.land()
		for b := 0; b < wbuf.LineSize; b++ {
			if e.Mask&(1<<uint(b)) != 0 {
				ref.Write(e.LineAddr+int64(b), []byte{e.Data[b] ^ flipByte})
			}
		}
	}
	if st := ref.Integrity(); st.Overwritten == 0 || st.MultiWords == 0 || ref.LatentWords() == 0 {
		t.Fatalf("premise: double flips, faults the writes retire and faults they leave (%+v, %d latent)",
			st, ref.LatentWords())
	}
	// Scrubbing repairs each single flip by its mask, so equal images
	// afterwards mean equal fault masks too.
	for _, scrubbed := range []bool{false, true} {
		if scrubbed {
			rn.DRAM.ScrubAll()
			ref.ScrubAll()
		}
		var gi, wi mem.Image
		rn.DRAM.Snapshot(&gi)
		ref.Snapshot(&wi)
		if !reflect.DeepEqual(gi, wi) {
			t.Errorf("scrubbed=%v: memory images differ", scrubbed)
		}
		if g, w := rn.DRAM.Integrity(), ref.Integrity(); g != w {
			t.Errorf("scrubbed=%v: Integrity() = %+v, want %+v", scrubbed, g, w)
		}
		if g, w := rn.DRAM.LatentWords(), ref.LatentWords(); g != w {
			t.Errorf("scrubbed=%v: LatentWords() = %d, want %d", scrubbed, g, w)
		}
	}
}
