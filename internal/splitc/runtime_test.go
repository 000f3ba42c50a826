package splitc

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/sim"
)

func newRT(pes int) *Runtime {
	return NewRuntime(machine.New(machine.DefaultConfig(pes)), DefaultConfig())
}

func TestReadWriteRemote(t *testing.T) {
	rt := newRT(2)
	rt.M.Nodes[1].DRAM.Write64(rt.Cfg.HeapBase, 77)
	rt.RunOn(0, func(c *Ctx) {
		g := Global(1, rt.Cfg.HeapBase)
		if v := c.Read(g); v != 77 {
			t.Errorf("Read = %d, want 77", v)
		}
		c.Write(g, 88)
		if v := c.Read(g); v != 88 {
			t.Errorf("Read after Write = %d, want 88", v)
		}
	})
	if v := rt.M.Nodes[1].DRAM.Read64(rt.Cfg.HeapBase); v != 88 {
		t.Errorf("remote memory = %d, want 88", v)
	}
}

func TestReadWriteLocalThroughGlobal(t *testing.T) {
	rt := newRT(2)
	rt.RunOn(0, func(c *Ctx) {
		a := c.Alloc(8)
		g := Global(c.MyPE(), a)
		c.Write(g, 5)
		if v := c.Read(g); v != 5 {
			t.Errorf("local global read = %d", v)
		}
		// The local fast path must not touch the annex.
		if c.Node.Shell.AnnexUpdates != 0 {
			t.Errorf("local access performed %d annex updates", c.Node.Shell.AnnexUpdates)
		}
	})
}

func TestSplitCReadCostMatchesPaper(t *testing.T) {
	// §4.4: the programmer-visible Split-C remote read costs ≈ 850 ns
	// (128 cycles), annex setup included. Alternating target PEs forces
	// an annex reload on every read.
	rt := newRT(3)
	var avg float64
	rt.RunOn(0, func(c *Ctx) {
		const n = 200
		start := c.P.Now()
		for i := 0; i < n; i++ {
			c.Read(Global(1+i%2, int64(i%64)*8+rt.Cfg.HeapBase))
		}
		avg = float64(c.P.Now()-start) / n
	})
	if avg < 115 || avg > 141 {
		t.Errorf("Split-C read = %.1f cycles, want ≈ 128 ± 10%%", avg)
	}
}

func TestSplitCWriteCostMatchesPaper(t *testing.T) {
	// §4.4: the Split-C write totals ≈ 981 ns (147 cycles).
	rt := newRT(3)
	var avg float64
	rt.RunOn(0, func(c *Ctx) {
		const n = 200
		start := c.P.Now()
		for i := 0; i < n; i++ {
			c.Write(Global(1+i%2, int64(i%64)*8+rt.Cfg.HeapBase), 1)
		}
		avg = float64(c.P.Now()-start) / n
	})
	if avg < 132 || avg > 162 {
		t.Errorf("Split-C write = %.1f cycles, want ≈ 147 ± 10%%", avg)
	}
}

func TestSplitCPutCostMatchesPaper(t *testing.T) {
	// §5.4: put averages ≈ 300 ns (45 cycles), annex setup and checks
	// included.
	rt := newRT(3)
	var avg float64
	rt.RunOn(0, func(c *Ctx) {
		const n = 400
		start := c.P.Now()
		for i := 0; i < n; i++ {
			c.Put(Global(1+i%2, int64(i)*8%4096+rt.Cfg.HeapBase), 1)
		}
		c.Sync()
		avg = float64(c.P.Now()-start) / n
	})
	if avg < 38 || avg > 52 {
		t.Errorf("Split-C put = %.1f cycles, want ≈ 45 ± 15%%", avg)
	}
}

func TestGetSyncDeliversValues(t *testing.T) {
	rt := newRT(2)
	for i := int64(0); i < 40; i++ {
		rt.M.Nodes[1].DRAM.Write64(rt.Cfg.HeapBase+i*8, uint64(i*3))
	}
	rt.RunOn(0, func(c *Ctx) {
		dst := c.Alloc(40 * 8)
		for i := int64(0); i < 40; i++ { // > FIFO depth: forces auto-drain
			c.Get(dst+i*8, Global(1, rt.Cfg.HeapBase+i*8))
		}
		c.Sync()
		for i := int64(0); i < 40; i++ {
			if v := c.Node.CPU.Load64(c.P, dst+i*8); v != uint64(i*3) {
				t.Fatalf("get %d = %d, want %d", i, v, i*3)
			}
		}
	})
}

func TestGetPipelinesBetterThanRead(t *testing.T) {
	// §5.2/§5.4: pipelined gets beat blocking reads once grouped.
	rt := newRT(2)
	var readTime, getTime sim.Time
	rt.RunOn(0, func(c *Ctx) {
		dst := c.Alloc(16 * 8)
		start := c.P.Now()
		for i := int64(0); i < 16; i++ {
			v := c.Read(Global(1, rt.Cfg.HeapBase+i*8))
			c.Node.CPU.Store64(c.P, dst+i*8, v)
		}
		readTime = c.P.Now() - start
		start = c.P.Now()
		for i := int64(0); i < 16; i++ {
			c.Get(dst+i*8, Global(1, rt.Cfg.HeapBase+i*8))
		}
		c.Sync()
		getTime = c.P.Now() - start
	})
	if getTime >= readTime {
		t.Errorf("16 gets took %d cycles, 16 blocking reads %d: gets must pipeline", getTime, readTime)
	}
}

func TestPutSyncCompletes(t *testing.T) {
	rt := newRT(2)
	rt.RunOn(0, func(c *Ctx) {
		for i := int64(0); i < 20; i++ {
			c.Put(Global(1, rt.Cfg.HeapBase+i*8), uint64(100+i))
		}
		c.Sync()
	})
	for i := int64(0); i < 20; i++ {
		if v := rt.M.Nodes[1].DRAM.Read64(rt.Cfg.HeapBase + i*8); v != uint64(100+i) {
			t.Fatalf("put %d = %d after sync", i, v)
		}
	}
}

func TestStoreAllStoreSync(t *testing.T) {
	// Bulk-synchronous pattern: every PE stores into its right neighbor,
	// then all cross AllStoreSync; afterwards every PE sees its data.
	rt := newRT(4)
	var bad int
	// §7.2 ablation: n signaling stores settled by one AllStoreSync
	// pipeline, where n blocking writes each wait for their ack.
	const n = 128
	var writeCy, storeCy sim.Time
	rt.Run(func(c *Ctx) {
		slot := c.Alloc(8)
		right := (c.MyPE() + 1) % c.NProc()
		c.Store(Global(right, slot), uint64(10+c.MyPE()))
		c.AllStoreSync()
		left := (c.MyPE() + 3) % c.NProc()
		if v := c.Node.CPU.Load64(c.P, slot); v != uint64(10+left) {
			bad++
		}

		buf := c.Alloc(n * 8)
		c.Barrier()
		if c.MyPE() == 0 {
			start := c.P.Now()
			for i := int64(0); i < n; i++ {
				c.Write(Global(1, buf+i*8), 1)
			}
			writeCy = c.P.Now() - start
		}
		c.Barrier()
		start := c.P.Now()
		if c.MyPE() == 0 {
			for i := int64(0); i < n; i++ {
				c.Store(Global(1, buf+i*8), 2)
			}
		}
		c.AllStoreSync()
		if c.MyPE() == 0 {
			storeCy = c.P.Now() - start
		}
	})
	if bad != 0 {
		t.Errorf("%d PEs saw missing store data after AllStoreSync", bad)
	}
	if storeCy >= writeCy {
		t.Errorf("stores + AllStoreSync cost %.1f cy/store, blocking writes %.1f cy/write: want stores cheaper",
			float64(storeCy)/n, float64(writeCy)/n)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	rt := newRT(4)
	var maxBefore, minAfter sim.Time
	minAfter = 1 << 60
	rt.Run(func(c *Ctx) {
		c.Compute(sim.Time(50 * (c.MyPE() + 1)))
		if now := c.P.Now(); now > maxBefore {
			maxBefore = now
		}
		c.Barrier()
		if now := c.P.Now(); now < minAfter {
			minAfter = now
		}
	})
	if minAfter < maxBefore {
		t.Errorf("a PE left the barrier at %d before the last arrived at %d", minAfter, maxBefore)
	}
}

func TestAnnexSingleStrategySkipsRedundantUpdates(t *testing.T) {
	rt := newRT(3)
	rt.RunOn(0, func(c *Ctx) {
		for i := 0; i < 10; i++ {
			c.Read(Global(1, rt.Cfg.HeapBase))
		}
		if c.Node.Shell.AnnexUpdates != 1 {
			t.Errorf("same-PE reads did %d annex updates, want 1", c.Node.Shell.AnnexUpdates)
		}
		c.Read(Global(2, rt.Cfg.HeapBase))
		if c.Node.Shell.AnnexUpdates != 2 {
			t.Errorf("PE switch did not reload the annex")
		}
	})
}

func TestAnnexMultiStrategyAvoidsReloads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Annex = MultiAnnex
	rt := NewRuntime(machine.New(machine.DefaultConfig(4)), cfg)
	rt.RunOn(0, func(c *Ctx) {
		for rep := 0; rep < 5; rep++ {
			for pe := 1; pe < 4; pe++ {
				c.Read(Global(pe, rt.Cfg.HeapBase))
			}
		}
		// Three distinct PEs: three updates total, the rest table hits.
		if c.Node.Shell.AnnexUpdates != 3 {
			t.Errorf("multi-annex did %d updates, want 3", c.Node.Shell.AnnexUpdates)
		}
	})
}

func TestReadCachedFlushesForCoherence(t *testing.T) {
	rt := newRT(2)
	rt.M.Nodes[1].DRAM.Write64(rt.Cfg.HeapBase, 1)
	rt.RunOn(0, func(c *Ctx) {
		g := Global(1, rt.Cfg.HeapBase)
		if v := c.ReadCached(g); v != 1 {
			t.Fatalf("first cached read = %d", v)
		}
		rt.M.Nodes[1].DRAM.Write64(rt.Cfg.HeapBase, 2)
		// Because ReadCached flushed, the second read is fresh — unlike
		// the raw cached mechanism.
		if v := c.ReadCached(g); v != 2 {
			t.Errorf("cached read after owner update = %d, want 2", v)
		}
		// §4.4 ablation: the line fill plus the mandatory flush make the
		// cached read dearer than the uncached one the runtime ships.
		start := c.P.Now()
		c.ReadCached(g)
		cached := c.P.Now() - start
		start = c.P.Now()
		c.Read(g)
		if uncached := c.P.Now() - start; cached <= uncached {
			t.Errorf("ReadCached took %d cy, Read %d cy: want the cached read dearer", cached, uncached)
		}
	})
}

func TestByteReadAndUnsafeWrite(t *testing.T) {
	rt := newRT(2)
	rt.M.Nodes[1].DRAM.Write64(rt.Cfg.HeapBase, 0x1122334455667788)
	rt.RunOn(0, func(c *Ctx) {
		g := Global(1, rt.Cfg.HeapBase+2) // byte 2: 0x66
		if b := c.ByteRead(g); b != 0x66 {
			t.Errorf("ByteRead = %#x, want 0x66", b)
		}
		c.WriteByteUnsafe(g, 0xAB)
		if b := c.ByteRead(g); b != 0xAB {
			t.Errorf("ByteRead after write = %#x, want 0xAB", b)
		}
		// Neighboring bytes untouched.
		if v := c.Read(Global(1, rt.Cfg.HeapBase)); v != 0x1122334455AB7788 {
			t.Errorf("word = %#x", v)
		}
	})
}

func TestSpreadArrayLayout(t *testing.T) {
	rt := newRT(4)
	rt.Run(func(c *Ctx) {
		s := c.AllocSpread(10, 8)
		if s.Ptr(0).PE() != 0 || s.Ptr(1).PE() != 1 || s.Ptr(5).PE() != 1 {
			t.Errorf("cyclic layout wrong: %v %v %v", s.Ptr(0), s.Ptr(1), s.Ptr(5))
		}
		if s.Ptr(4).Local() != s.Ptr(0).Local()+8 {
			t.Errorf("second row offset wrong")
		}
		if s.LocalCount(0) != 3 || s.LocalCount(1) != 3 || s.LocalCount(2) != 2 || s.LocalCount(3) != 2 {
			t.Errorf("LocalCount wrong: %d %d %d %d",
				s.LocalCount(0), s.LocalCount(1), s.LocalCount(2), s.LocalCount(3))
		}
		// Write every element from PE 0, read back from owners.
		if c.MyPE() == 0 {
			for i := int64(0); i < 10; i++ {
				c.Write(s.Ptr(i), uint64(i*i))
			}
		}
		c.Barrier()
		for i := int64(0); i < 10; i++ {
			if v := c.Read(s.Ptr(i)); v != uint64(i*i) {
				t.Errorf("spread[%d] = %d on PE %d", i, v, c.MyPE())
			}
		}
	})
}

func TestAllocSymmetricAcrossPEs(t *testing.T) {
	rt := newRT(3)
	addrs := make([]int64, 3)
	rt.Run(func(c *Ctx) {
		c.Alloc(48)
		addrs[c.MyPE()] = c.Alloc(8)
	})
	if addrs[0] != addrs[1] || addrs[1] != addrs[2] {
		t.Errorf("symmetric allocation diverged: %v", addrs)
	}
}

func TestLocalRegionRestoresConsistency(t *testing.T) {
	// The §4.5 violation: a locally buffered data write can be observed
	// missing by a remote reader that already saw the flag. Bracketing
	// the local-pointer accesses with ExitLocalRegion before publishing
	// the flag closes the window.
	rt := newRT(2)
	const dataOff, flagOff = 0x11000, 0x12000
	var observed uint64
	rt.Run(func(c *Ctx) {
		switch c.MyPE() {
		case 0:
			// Fill the buffer, write data through a LOCAL pointer...
			for i := int64(0); i < 4; i++ {
				c.Node.CPU.Store64(c.P, 0x13000+i*64, 1)
			}
			c.Node.CPU.Store64(c.P, dataOff, 42)
			// ...then leave the privatized region before publishing.
			c.ExitLocalRegion()
			c.Write(Global(1, flagOff), 1)
		case 1:
			for c.Node.CPU.Load64(c.P, flagOff) != 1 {
				c.Compute(5)
			}
			observed = c.Read(Global(0, dataOff))
		}
	})
	if observed != 42 {
		t.Errorf("remote reader saw %d, want 42: privatization did not restore ordering", observed)
	}
}
