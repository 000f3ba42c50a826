package fault

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/net"
	"repro/internal/sim"
	"repro/internal/splitc"
)

func TestScheduleReplayableFromSeed(t *testing.T) {
	cfg := Config{
		Seed:           7,
		HardLinkFaults: 20, HardNodeFaults: 10, Horizon: 100000,
		MemFaultRate: 5, MemMultiFrac: 0.25,
	}
	a := NewSchedule(cfg, 16)
	b := NewSchedule(cfg, 16)
	if !reflect.DeepEqual(a, b) {
		t.Error("same seed produced different schedules")
	}
	cfg.Seed = 8
	c := NewSchedule(cfg, 16)
	if reflect.DeepEqual(a.HardLinks, c.HardLinks) && reflect.DeepEqual(a.HardNodes, c.HardNodes) {
		t.Error("different seeds produced identical hard-fault plans")
	}
	if reflect.DeepEqual(a.MemFlips, c.MemFlips) {
		t.Error("different seeds produced identical flip plans")
	}
}

// TestConfigValidate table-tests every rejection Validate can issue.
// Each error message must carry the "fault: <field>: " prefix so callers
// can grep rejections by field.
func TestConfigValidate(t *testing.T) {
	nan := math.NaN()
	bad := []struct {
		name  string
		field string
		cfg   Config
	}{
		{"drop-negative", "DropRate", Config{DropRate: -0.1}},
		{"drop-above-one", "DropRate", Config{DropRate: 1.5}},
		{"drop-nan", "DropRate", Config{DropRate: nan}},
		{"corrupt-above-one", "CorruptRate", Config{CorruptRate: 1.5}},
		{"corrupt-nan", "CorruptRate", Config{CorruptRate: nan}},
		{"rates-sum", "DropRate+CorruptRate", Config{DropRate: 0.7, CorruptRate: 0.7}},
		{"memrate-negative", "MemFaultRate", Config{MemFaultRate: -1}},
		{"memrate-nan", "MemFaultRate", Config{MemFaultRate: nan}},
		{"multifrac-range", "MemMultiFrac", Config{MemMultiFrac: 1.5}},
		{"multifrac-nan", "MemMultiFrac", Config{MemMultiFrac: nan}},
		{"memwords-negative", "MemFaultWords", Config{MemFaultWords: -8}},
		{"membase-negative", "MemFaultBase", Config{MemFaultBase: -8, MemFaultWords: 64}},
		{"membase-unbounded", "MemFaultBase", Config{MemFaultBase: 64}},
		{"hardlinks-no-horizon", "Horizon", Config{HardLinkFaults: 1}},
		{"hardnodes-no-horizon", "Horizon", Config{HardNodeFaults: 1}},
		{"memrate-no-horizon", "Horizon", Config{MemFaultRate: 2}},
		{"scrub-no-horizon", "Horizon", Config{Scrub: true, ScrubInterval: 10}},
		{"hardlinks-negative", "HardLinkFaults", Config{HardLinkFaults: -1, Horizon: 100}},
		{"hardnodes-negative", "HardNodeFaults", Config{HardNodeFaults: -1, Horizon: 100}},
		{"scrub-no-interval", "ScrubInterval", Config{Scrub: true, Horizon: 100}},
	}
	for _, tc := range bad {
		err := tc.cfg.Validate()
		if err == nil {
			t.Errorf("%s: config %+v accepted", tc.name, tc.cfg)
			continue
		}
		if want := "fault: " + tc.field + ":"; !strings.HasPrefix(err.Error(), want) {
			t.Errorf("%s: error %q does not start with %q", tc.name, err, want)
		}
	}
	good := Config{Seed: 1, DropRate: 0.01, Horizon: 1000, HardLinkFaults: 2, HardNodeFaults: 1,
		MemFaultRate: 3, MemMultiFrac: 0.25,
		MemFaultBase: 8192, MemFaultWords: 64, Scrub: true, ScrubInterval: 100}
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestMemStreamIndependent pins the stream-isolation contract: enabling
// memory flips must not move a single draw of the hard-fault plan, so
// recorded replay seeds stay valid, and the flip plan itself must be
// replayable and in bounds.
func TestMemStreamIndependent(t *testing.T) {
	base := Config{
		Seed:           7,
		HardLinkFaults: 20, HardNodeFaults: 10, Horizon: 100000,
	}
	withMem := base
	withMem.MemFaultRate = 5
	withMem.MemMultiFrac = 0.5
	a := NewSchedule(base, 16)
	b := NewSchedule(withMem, 16)
	if !reflect.DeepEqual(a.HardLinks, b.HardLinks) || !reflect.DeepEqual(a.HardNodes, b.HardNodes) {
		t.Error("enabling memory flips changed the hard-fault plan")
	}
	if len(a.MemFlips) != 0 {
		t.Errorf("schedule without memory faults has %d flips", len(a.MemFlips))
	}
	c := NewSchedule(withMem, 16)
	if !reflect.DeepEqual(b.MemFlips, c.MemFlips) {
		t.Error("same seed produced different flip plans")
	}
	want := int(withMem.MemFaultRate*float64(withMem.Horizon)*16/1e6 + 0.5)
	if len(b.MemFlips) != want {
		t.Errorf("flip count %d, want %d", len(b.MemFlips), want)
	}
	multi := 0
	for _, mf := range b.MemFlips {
		if mf.PE < 0 || mf.PE >= 16 || mf.At < 0 || mf.At >= withMem.Horizon {
			t.Errorf("flip %+v outside the machine/horizon", mf)
		}
		if mf.Bit < 0 || mf.Bit > 63 {
			t.Errorf("flip %+v has an impossible bit", mf)
		}
		if mf.Bit2 >= 0 {
			multi++
			if mf.Bit2 > 63 || mf.Bit2 == mf.Bit {
				t.Errorf("double flip %+v has an impossible second bit", mf)
			}
		}
	}
	if multi == 0 || multi == len(b.MemFlips) {
		t.Errorf("MemMultiFrac 0.5 produced %d/%d double flips", multi, len(b.MemFlips))
	}
}

// remoteStoreStorm performs remote blocking-store traffic between two PEs
// and returns the end time plus per-node memory images of the target
// words, so runs can be compared bit for bit.
func remoteStoreStorm(t *testing.T, cfg Config) (sim.Time, []uint64, int64, int64) {
	t.Helper()
	m := machine.New(machine.DefaultConfig(2))
	in := Inject(m, cfg)
	rt := splitc.NewRuntime(m, splitc.DefaultConfig())
	end := rt.Run(func(c *splitc.Ctx) {
		base := c.Alloc(64 * 8)
		c.Barrier()
		if c.MyPE() == 0 {
			for i := int64(0); i < 64; i++ {
				c.Put(splitc.Global(1, base+i*8), uint64(i)+1)
			}
			c.Sync()
		}
		c.Barrier()
	})
	var img []uint64
	d := m.Nodes[1].DRAM
	base := splitc.DefaultConfig().HeapBase
	for i := int64(0); i < 64; i++ {
		img = append(img, d.Read64(base+i*8))
	}
	return end, img, in.Drops, in.Corrupts
}

func TestInjectedFaultsDamagePayloads(t *testing.T) {
	// With an aggressive drop rate, some of the 64 stores must fail to
	// land even though the run completes (the envelope is still acked).
	end0, img0, d0, c0 := remoteStoreStorm(t, Config{})
	if d0 != 0 || c0 != 0 {
		t.Fatalf("zero config injected faults: drops=%d corrupts=%d", d0, c0)
	}
	for i, v := range img0 {
		if v != uint64(i)+1 {
			t.Fatalf("fault-free run lost word %d (= %d)", i, v)
		}
	}
	_, img, drops, _ := remoteStoreStorm(t, Config{Seed: 99, DropRate: 0.3})
	if drops == 0 {
		t.Fatal("30%% drop rate injected nothing")
	}
	damaged := 0
	for i, v := range img {
		if v != uint64(i)+1 {
			damaged++
		}
	}
	if damaged == 0 {
		t.Error("drops reported but every word landed intact")
	}
	_ = end0
}

func TestInjectionReplayable(t *testing.T) {
	// Same seed ⇒ identical fault decisions, end time, and memory image.
	cfg := Config{Seed: 1234, DropRate: 0.1, CorruptRate: 0.05}
	endA, imgA, dropsA, corrA := remoteStoreStorm(t, cfg)
	endB, imgB, dropsB, corrB := remoteStoreStorm(t, cfg)
	if endA != endB {
		t.Errorf("end times differ: %d vs %d", endA, endB)
	}
	if !reflect.DeepEqual(imgA, imgB) {
		t.Error("memory images differ between identically seeded runs")
	}
	if dropsA != dropsB || corrA != corrB {
		t.Errorf("fault counts differ: (%d,%d) vs (%d,%d)", dropsA, corrA, dropsB, corrB)
	}
}

func TestCorruptFlipsBits(t *testing.T) {
	// A corrupt-everything hook must leave wrong (not missing) data.
	m := machine.New(machine.DefaultConfig(2))
	sched := NewSchedule(Config{Seed: 5, CorruptRate: 1}, 2)
	in := NewInjector(sched)
	in.Attach(m)
	rt := splitc.NewRuntime(m, splitc.DefaultConfig())
	rt.Run(func(c *splitc.Ctx) {
		base := c.Alloc(8)
		c.Barrier()
		if c.MyPE() == 0 {
			c.Put(splitc.Global(1, base), 0)
			c.Sync()
		}
		c.Barrier()
	})
	base := splitc.DefaultConfig().HeapBase
	got := m.Nodes[1].DRAM.Read64(base)
	if got == 0 {
		t.Errorf("corrupted store of 0 still reads 0 (corruption not applied)")
	}
	if in.Corrupts == 0 {
		t.Error("no corruption counted")
	}
	if want := uint64(0xA5A5A5A5A5A5A5A5); got != want {
		t.Errorf("corruption pattern = %#x, want %#x", got, want)
	}
}

var _ net.FaultHook = (*Injector)(nil)
