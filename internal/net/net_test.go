package net

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestShapeFor(t *testing.T) {
	cases := []struct {
		n    int
		want [3]int
	}{
		{1, [3]int{1, 1, 1}},
		{2, [3]int{2, 1, 1}},
		{8, [3]int{2, 2, 2}},
		{32, [3]int{4, 4, 2}},
		{2048, [3]int{16, 16, 8}},
	}
	for _, c := range cases {
		got := ShapeFor(c.n)
		if got[0]*got[1]*got[2] != c.n {
			t.Errorf("ShapeFor(%d) = %v, product != n", c.n, got)
		}
		if c.n <= 32 && got != c.want {
			// Exact shapes only asserted for the small, well-known cases.
			t.Errorf("ShapeFor(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestCoordIndexRoundTrip(t *testing.T) {
	n := New(sim.NewEngine(), DefaultConfig(32))
	for pe := 0; pe < n.Nodes(); pe++ {
		if got := n.Index(n.Coord(pe)); got != pe {
			t.Fatalf("Index(Coord(%d)) = %d", pe, got)
		}
	}
}

func TestAdjacentHopCount(t *testing.T) {
	n := New(sim.NewEngine(), DefaultConfig(8)) // 2x2x2
	if h := n.HopCount(0, 1); h != 1 {
		t.Errorf("adjacent hop count = %d, want 1", h)
	}
	if h := n.HopCount(0, 0); h != 0 {
		t.Errorf("self hop count = %d, want 0", h)
	}
	// Opposite corner of a 2x2x2 torus: 3 hops.
	if h := n.HopCount(0, 7); h != 3 {
		t.Errorf("corner-to-corner = %d, want 3", h)
	}
}

func TestTorusWraparound(t *testing.T) {
	// In a ring of 4, node 0 -> node 3 is 1 hop backwards, not 3 forwards.
	cfg := DefaultConfig(4)
	cfg.Shape = [3]int{4, 1, 1}
	n := New(sim.NewEngine(), cfg)
	if h := n.HopCount(0, 3); h != 1 {
		t.Errorf("wraparound hop count = %d, want 1", h)
	}
	if h := n.HopCount(0, 2); h != 2 {
		t.Errorf("half-ring hop count = %d, want 2", h)
	}
}

func TestDeliveryLatencyScalesWithHops(t *testing.T) {
	cfg := DefaultConfig(8)
	cfg.Shape = [3]int{8, 1, 1}
	eng := sim.NewEngine()
	n := New(eng, cfg)
	times := map[int]sim.Time{}
	eng.Spawn("sender", func(p *sim.Proc) {
		for _, dst := range []int{1, 2, 3} {
			dst := dst
			n.Send(0, dst, 8, func() { times[dst] = eng.Now() })
		}
	})
	eng.Run()
	// Per extra hop the head pays HopLatency (2 cycles) once links are
	// otherwise idle... except these three packets share link 0->1 and
	// serialize there. Check monotonicity and per-hop increment using
	// fresh engines instead.
	for _, dst := range []int{1, 2, 3} {
		eng2 := sim.NewEngine()
		n2 := New(eng2, cfg)
		var at sim.Time
		eng2.Spawn("s", func(p *sim.Proc) {
			n2.Send(0, dst, 8, func() { at = eng2.Now() })
		})
		eng2.Run()
		occ := cfg.HeaderOcc + cfg.FlitOcc // 8-byte payload
		want := sim.Time(dst)*cfg.HopLatency + occ
		if at != want {
			t.Errorf("delivery to %d at %d, want %d", dst, at, want)
		}
	}
	_ = times
}

func TestLinkSerialization(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Shape = [3]int{2, 1, 1}
	eng := sim.NewEngine()
	n := New(eng, cfg)
	var arrivals []sim.Time
	eng.Spawn("sender", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			n.Send(0, 1, 8, func() { arrivals = append(arrivals, eng.Now()) })
		}
	})
	eng.Run()
	if len(arrivals) != 3 {
		t.Fatalf("got %d deliveries", len(arrivals))
	}
	occ := cfg.HeaderOcc + cfg.FlitOcc
	for i := 1; i < 3; i++ {
		if gap := arrivals[i] - arrivals[i-1]; gap != occ {
			t.Errorf("arrival gap = %d, want link occupancy %d", gap, occ)
		}
	}
}

func TestDisjointRoutesDoNotSerialize(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Shape = [3]int{4, 1, 1}
	eng := sim.NewEngine()
	n := New(eng, cfg)
	var a1, a2 sim.Time
	eng.Spawn("s", func(p *sim.Proc) {
		n.Send(0, 1, 8, func() { a1 = eng.Now() })
		n.Send(2, 3, 8, func() { a2 = eng.Now() })
	})
	eng.Run()
	if a1 != a2 {
		t.Errorf("disjoint sends arrived at %d and %d, want equal", a1, a2)
	}
}

func TestSelfSendDelivers(t *testing.T) {
	eng := sim.NewEngine()
	n := New(eng, DefaultConfig(8))
	delivered := false
	eng.Spawn("s", func(p *sim.Proc) {
		n.Send(3, 3, 8, func() { delivered = true })
	})
	eng.Run()
	if !delivered {
		t.Error("self-send never delivered")
	}
}

func TestPropertyRouteReachesDestination(t *testing.T) {
	n := New(sim.NewEngine(), DefaultConfig(32))
	f := func(a, b uint8) bool {
		src, dst := int(a)%32, int(b)%32
		cur := src
		for _, hop := range n.Route(src, dst) {
			if hop[0] != cur {
				return false // route must be contiguous
			}
			c := n.Coord(cur)
			dim, dir := hop[1]/2, hop[1]%2
			if dir == 0 {
				c[dim] = (c[dim] + 1) % n.Config().Shape[dim]
			} else {
				c[dim] = (c[dim] - 1 + n.Config().Shape[dim]) % n.Config().Shape[dim]
			}
			cur = n.Index(c)
		}
		return cur == dst
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyHopCountSymmetric(t *testing.T) {
	// Dimension-order routing on a torus with shortest-way choice gives
	// symmetric hop counts.
	n := New(sim.NewEngine(), DefaultConfig(32))
	f := func(a, b uint8) bool {
		src, dst := int(a)%32, int(b)%32
		return n.HopCount(src, dst) == n.HopCount(dst, src)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropertyHopCountBounded(t *testing.T) {
	n := New(sim.NewEngine(), DefaultConfig(64))
	s := n.Config().Shape
	maxHops := s[0]/2 + s[1]/2 + s[2]/2
	f := func(a, b uint16) bool {
		return n.HopCount(int(a)%64, int(b)%64) <= maxHops
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLinkBusyAccounting(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Shape = [3]int{2, 1, 1}
	eng := sim.NewEngine()
	n := New(eng, cfg)
	eng.Spawn("s", func(p *sim.Proc) {
		n.Send(0, 1, 8, func() {})
		n.Send(0, 1, 8, func() {})
	})
	eng.Run()
	occ := cfg.HeaderOcc + cfg.FlitOcc
	if got := n.LinkBusy(0, 0) + n.LinkBusy(0, 1); got != 2*occ {
		t.Errorf("link busy = %d, want %d", got, 2*occ)
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig(8)
	if err := good.Validate(8); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	bad := good
	bad.Shape = [3]int{2, 0, 2}
	if err := bad.Validate(0); err == nil {
		t.Error("zero shape dimension accepted")
	}
	bad = good
	bad.Shape = [3]int{-2, 2, 2}
	if err := bad.Validate(0); err == nil {
		t.Error("negative shape dimension accepted")
	}
	if err := good.Validate(9); err == nil {
		t.Error("node-count mismatch accepted")
	}
	bad = good
	bad.HopLatency = -1
	if err := bad.Validate(8); err == nil {
		t.Error("negative hop latency accepted")
	}
}

func TestNewCheckedRejectsBadShape(t *testing.T) {
	cfg := DefaultConfig(4)
	cfg.Shape = [3]int{0, 2, 2}
	if _, err := NewChecked(sim.NewEngine(), cfg); err == nil {
		t.Error("NewChecked accepted a zero shape dimension")
	}
	if _, err := NewChecked(sim.NewEngine(), DefaultConfig(4)); err != nil {
		t.Errorf("NewChecked rejected a valid config: %v", err)
	}
}

func TestShapeForErr(t *testing.T) {
	if _, err := ShapeForErr(0); err == nil {
		t.Error("ShapeForErr(0) returned nil error")
	}
	if _, err := ShapeForErr(-3); err == nil {
		t.Error("ShapeForErr(-3) returned nil error")
	}
	s, err := ShapeForErr(12)
	if err != nil {
		t.Fatalf("ShapeForErr(12) = %v", err)
	}
	if s[0]*s[1]*s[2] != 12 {
		t.Errorf("shape %v does not multiply to 12", s)
	}
}

// dropAll is a FaultHook that gives every data packet one verdict and
// counts how often it was consulted.
type dropAll struct {
	verdict Fault
	seen    int
}

func (d *dropAll) PacketFault(src, dst, payloadBytes int) Fault {
	d.seen++
	return d.verdict
}

func TestFaultHookDataVsControl(t *testing.T) {
	// The hook sees SendData packets but never Send (control) packets,
	// and the envelope still arrives on time either way.
	cfg := DefaultConfig(2)
	cfg.Shape = [3]int{2, 1, 1}
	eng := sim.NewEngine()
	n := New(eng, cfg)
	hook := &dropAll{verdict: FaultDrop}
	n.SetFaultHook(hook)
	var dataFault Fault = -1
	controlDelivered := false
	eng.Spawn("s", func(p *sim.Proc) {
		n.SendData(0, 1, 8, func(f Fault, _ bool) { dataFault = f })
		n.Send(0, 1, 8, func() { controlDelivered = true })
	})
	eng.Run()
	if hook.seen != 1 {
		t.Errorf("hook consulted %d times, want 1 (data only)", hook.seen)
	}
	if dataFault != FaultDrop {
		t.Errorf("data verdict = %v, want drop", dataFault)
	}
	if !controlDelivered {
		t.Error("control packet not delivered")
	}
	if n.Dropped != 1 || n.Corrupted != 0 {
		t.Errorf("stats dropped=%d corrupted=%d, want 1, 0", n.Dropped, n.Corrupted)
	}
}

func TestFaultHookCorruptStat(t *testing.T) {
	cfg := DefaultConfig(2)
	cfg.Shape = [3]int{2, 1, 1}
	eng := sim.NewEngine()
	n := New(eng, cfg)
	n.SetFaultHook(&dropAll{verdict: FaultCorrupt})
	got := FaultNone
	eng.Spawn("s", func(p *sim.Proc) {
		n.SendData(0, 1, 16, func(f Fault, _ bool) { got = f })
	})
	eng.Run()
	if got != FaultCorrupt || n.Corrupted != 1 {
		t.Errorf("verdict=%v corrupted=%d, want corrupt, 1", got, n.Corrupted)
	}
}

// TestHookedSendDoesNotAllocate: consulting a fault hook costs a data
// packet nothing on the host. With a pass-through hook attached, a round
// of 64 steady-state sends allocates nothing, as it does with no hook.
func TestHookedSendDoesNotAllocate(t *testing.T) {
	cfg := DefaultConfig(8)
	eng := sim.NewEngine()
	n := New(eng, cfg)
	hook := &dropAll{verdict: FaultNone}
	n.SetFaultHook(hook)
	delivered := 0
	deliver := func(f Fault, _ bool) { delivered++ }
	round := func() {
		for i := 0; i < 64; i++ {
			n.SendData(0, 7, 32, deliver)
		}
		eng.Run()
	}
	if a := testing.AllocsPerRun(20, round); a != 0 {
		t.Errorf("64 hooked sends allocate %.1f objects, want 0", a)
	}
	if hook.seen != delivered || delivered != 21*64 {
		t.Errorf("hook consulted %d times for %d deliveries, want %d each", hook.seen, delivered, 21*64)
	}
}
